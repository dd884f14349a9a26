"""Benchmark for the tatrack pipeline: see README.md in this directory."""
