"""The frozen dataclasses that hold arrays compare and hash by identity: an
array has no single truth value, so a field-by-field ``==`` would raise on
two builds with equal content, and a field hash would raise on any."""

import pytest

from craftfaces.diffusion import build_schedule, make_codec, make_denoiser
from craftfaces.lora import _init_adapter
from craftfaces.numerics import RngStream
from craftfaces.pipeline import _Runtime
from craftfaces.style import make_extractor


def _model(seed):
    return make_denoiser(4, 4, 8, 6, RngStream(seed=seed))


BUILDS = {
    "NoiseSchedule": lambda: build_schedule(3),
    "LatentCodec": lambda: make_codec((2, 32, 32), 16, RngStream(seed=1)),
    "DenoiserModel": lambda: _model(1),
    "AttentionWeights": lambda: _model(1).attention.base,
    "ExtendedAttentionWeights": lambda: _model(1).attention,
    "LoRAAdapter": lambda: _init_adapter(4, 4, 2, 1.0, RngStream(seed=1)),
    "FeatureExtractor": lambda: make_extractor(2, (3, 4), RngStream(seed=1)),
    "_Runtime": lambda: _Runtime(build_schedule(3), make_codec((2, 32, 32), 16, RngStream(seed=1)), _model(1)),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_equality_and_hash_are_identity(name):
    a, b = BUILDS[name](), BUILDS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert (a == b) is False and a != b
    assert hash(a) == hash(a) and {a: 1, b: 2}[a] == 1
