"""Configuration, checkpoints, CLI, and experiment drivers."""
