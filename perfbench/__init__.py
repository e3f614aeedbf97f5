"""End-to-end and per-layer benchmark of cbwk sweeps; see README.md."""
