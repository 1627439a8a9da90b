"""Seeded end-to-end and per-layer benchmark of the SPC serving stack.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
