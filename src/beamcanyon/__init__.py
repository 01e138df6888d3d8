"""beamcanyon: mmWave V2I beam-selection simulation toolkit."""

__version__ = "0.1.0"
