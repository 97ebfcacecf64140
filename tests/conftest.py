import math

import pytest

from spin1wave import fields


@pytest.fixture
def fft_transforms(monkeypatch):
    """Scalar 3-D transforms made through fields.fftn/ifftn while the test
    runs: one list entry per call, holding that call's transform count."""
    transforms = []

    def counted(fft):
        def wrapper(data, *, out=None):
            transforms.append(math.prod(data.shape[:-3]))
            return fft(data, out=out)

        return wrapper

    monkeypatch.setattr(fields, "fftn", counted(fields.fftn))
    monkeypatch.setattr(fields, "ifftn", counted(fields.ifftn))
    return transforms
