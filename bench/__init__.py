"""The repository benchmark; run it with ``python -m bench``."""
