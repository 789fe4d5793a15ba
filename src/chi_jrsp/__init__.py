"""Simulator and verification harness for joint remote preparation of
arbitrary four-qubit chi-type entangled states over GHZ channels."""

__version__ = "0.1.0"
