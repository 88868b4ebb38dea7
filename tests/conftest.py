"""Shared fixtures."""

import numpy as np
import pytest

from zoomctl import verify


@pytest.fixture
def exact_pass(monkeypatch):
    """A function running ``verify.record_exact(cfg)``: its pass, and its floor flags (trials x horizon),
    gathered from the lane audit of each block."""
    def run(cfg):
        blocks = []
        audit = verify.validate_trace_columns

        def spy(*args):
            result = audit(*args)
            blocks.append(result.clamped)
            return result

        monkeypatch.setattr(verify, "validate_trace_columns", spy)
        recorded = verify.record_exact(cfg)
        monkeypatch.setattr(verify, "validate_trace_columns", audit)
        return recorded, np.concatenate(blocks, axis=1)
    return run
