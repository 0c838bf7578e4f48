"""Exact quantum-invariant data for mapping tori of finite order surface
diffeomorphisms."""

__version__ = "0.1.0"
