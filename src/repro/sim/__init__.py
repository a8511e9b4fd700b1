"""Full-system simulation: processor + LLC + ORAM controller + DRAM."""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    SimulatorCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .persistence import CampaignJournal
from .results import SimulationResult
from .simulator import MemoryHierarchy, Simulator

__all__ = [
    "Simulator",
    "MemoryHierarchy",
    "SimulationResult",
    "SimulatorCheckpoint",
    "CheckpointManager",
    "CampaignJournal",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
]
