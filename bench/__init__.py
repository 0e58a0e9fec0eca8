"""End-to-end and per-layer benchmark for comptonqcd; run ``python3 bench/run.py --help``."""
