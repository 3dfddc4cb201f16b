"""Bit-exact simulator and cost model for serial IMPLY computation-in-memory
implementations of the Trivium and Grain-128a stream ciphers, plus an LSB
image-steganography pipeline driven by the simulated keystreams."""

from .costs import aggregate, closed_form, compare
from .grain_cim import GrainSim
from .reference import grain128a_ref, trivium_ref, xorcrypt
from .shifting import Mode, plan, verify_polarity
from .trivium_cim import TriviumSim

__all__ = [
    "GrainSim",
    "Mode",
    "TriviumSim",
    "aggregate",
    "closed_form",
    "compare",
    "grain128a_ref",
    "plan",
    "trivium_ref",
    "verify_polarity",
    "xorcrypt",
]
__version__ = "0.1.0"
