"""2D H(curl)-conforming Stokes discretization with weak no-slip boundary conditions."""

__version__ = "0.1.0"
