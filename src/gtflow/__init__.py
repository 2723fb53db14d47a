"""Gradient-tracking consensus optimization over networks with nonlinear links.

Modules by role:

- :mod:`gtflow.graph` — weight-balanced topologies, Laplacians, switching.
- :mod:`gtflow.nonlinear` — link nonlinearities and sector bounds.
- :mod:`gtflow.cost` — per-agent cost handles (quadratic, smoothed-hinge SVM).
- :mod:`gtflow.spectral` — system matrices, eigenstructure, step-size bounds.
- :mod:`gtflow.engine` — fixed-step integration of the tracking dynamics.
- :mod:`gtflow.svmlab` — distributed-SVM data, baseline, and experiments.
- :mod:`gtflow.verify` — runnable property corpus.
- :mod:`gtflow.cli` — experiment runner (``gtflow`` entry point).
"""

__version__ = "0.1.0"
