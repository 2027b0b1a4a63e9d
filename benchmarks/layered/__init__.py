"""The layered serving benchmark; see README.md and run.py."""
