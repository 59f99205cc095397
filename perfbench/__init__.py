"""Benchmark of the BCS-MPI simulator: see README.md in this directory."""
