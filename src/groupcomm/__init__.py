"""Learned communication groups for bandwidth-efficient multi-agent perception.

Subpackages by layer: ``densemath`` (activations, softmax + seeded RNG),
``commgraph`` (matching-matrix math), ``neuralnet`` (trainable pipeline with
manual backprop, and the communication policies), ``scenarios`` (synthetic
worlds and episodes), ``simnet`` (decentralized handshake simulator with
bandwidth accounting), and ``evalcli`` (policy episodes through the simulator,
metrics, sweeps, command-line entry point).
"""

from . import commgraph, densemath, evalcli, neuralnet, scenarios, simnet

__all__ = ["commgraph", "densemath", "evalcli", "neuralnet", "scenarios", "simnet"]
__version__ = "0.1.0"
