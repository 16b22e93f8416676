"""Density-ranked curriculum design and staged training for noisy-label
feature datasets. Names are imported from their modules (``currikit.data``,
``currikit.curriculum`` and so on); the package itself holds only the version."""

__version__ = "0.1.0"
