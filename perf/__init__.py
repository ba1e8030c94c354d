"""The repository's one benchmark: see README.md in this directory."""
