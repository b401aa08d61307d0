"""The measured-clock benchmark: ``python3 -m bench`` (see README.md)."""
