"""riversep: source separation for river water-quality records.

Parses monitoring tables (USGS RDB or CSV), reduces them to annual means,
and decomposes the result with PCA, FastICA, and maximum-likelihood factor
analysis, plus the supporting diagnostics (autocorrelation, mutual
information, Moran's I) and a synthetic benchmark harness.

Import each name from its module: ``riversep.ingest``, ``preprocess``,
``linalg``, ``pca``, ``ica``, ``fa``, ``diagnostics``, ``synth``,
``report``, ``errors`` or ``config``; ``riversep.cli`` is the command.
"""

__version__ = "0.1.0"
