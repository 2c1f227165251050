"""CleanML core: experiment grid, relations R1/R2/R3, queries Q1-Q5."""
from repro.core.protocol import FULL, PAPER, SMOKE, Protocol
from repro.core.schema import SCENARIOS, scenarios_for

__all__ = [
    "Protocol",
    "PAPER",
    "FULL",
    "SMOKE",
    "SCENARIOS",
    "scenarios_for",
]
