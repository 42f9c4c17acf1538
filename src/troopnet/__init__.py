"""Co-occurrence social-network toolkit for animal face detections.

Turns per-frame face detections into identity tracks, co-occurrence
ledgers, simple-ratio association matrices, network measures and rendered
graphs, with a deterministic synthetic-data generator for end-to-end
verification.
"""

__version__ = "1.0.0"
