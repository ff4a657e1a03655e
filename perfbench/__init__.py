"""The repository's benchmark: three workloads over the sagan_ray
pipeline, end-to-end metrics and a traced per-layer run. Entry point:
``python3 perfbench/run.py``; see README.md in this directory."""
