"""In-memory module checkpoints.

The pre-train / fine-tune paradigm in Section IV-C keeps intermediate
scheduler models during pre-training on the simulator and later restores the
best of them before fine-tuning on the real DBMS.
"""

from __future__ import annotations

from .layers import Module

__all__ = ["Checkpoint"]


class Checkpoint:
    """An in-memory checkpoint of a module, used to snapshot policies.

    The trainer keeps several of these during simulator pre-training and
    restores the one with the best validated makespan (Section IV-C).
    """

    def __init__(self, module: Module, score: float, tag: str = "") -> None:
        self.state = module.state_dict()
        self.score = float(score)
        self.tag = tag

    def restore(self, module: Module) -> None:
        """Copy the checkpointed parameters back into ``module``."""
        module.load_state_dict(self.state)

    def __repr__(self) -> str:
        return f"Checkpoint(tag={self.tag!r}, score={self.score:.4f})"
