"""chaincut: simulate, cut, mitigate, and stitch linear-cluster chains.

Import the submodules by name (``from chaincut.reconstruct import ...``);
the purely classical stages (mitigation, reconstruct) never import the
simulator.
"""

__version__ = "0.1.0"
