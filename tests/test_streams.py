"""Pinned PCG64 departure streams.

Each case hashes the departure sequence of one seeded generator call.  The
golden SVG, the tetris pin and the acceptance criteria all rest on these
streams, so any change to how draws are consumed shows up here first.
Pods and stations are hashed as plain ints, so the digest pins the values
and not the integer type that carries them.
"""

import hashlib

import pytest

from podrepo.harness import (build_tiny_random, build_tiny_symmetric,
                             plain_medium_instance, seasonal_medium_instance)
from podrepo.instances import REGIMES, build_medium_system, build_small_system


def _digest(departures) -> str:
    pairs = tuple((int(h), int(s)) for h, s in departures)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def _tiny_symmetric(regime):
    return [build_tiny_symmetric(6, regime=regime, seed=seed, n=40).departures
            for seed in range(10)]


CASES = {
    "small-1": lambda: build_small_system(1).departures,
    "small-2": lambda: build_small_system(2).departures,
    "small-3": lambda: build_small_system(3).departures,
    "medium-1": lambda: build_medium_system(1, n=20000).departures,
    "seasonal-1": lambda: seasonal_medium_instance(1, n=10000).departures,
    "seasonal-2": lambda: seasonal_medium_instance(2, n=10000).departures,
    "plain-1": lambda: plain_medium_instance(1, n=10000).departures,
    "plain-2": lambda: plain_medium_instance(2, n=10000).departures,
    "tiny-random-0..9": lambda: [build_tiny_random(seed).departures
                                 for seed in range(10)],
    **{f"tiny-symmetric-{regime}": (lambda r=regime: _tiny_symmetric(r))
       for regime in REGIMES},
}

DIGESTS = {
    "medium-1": "6e2483fea5bd3a750214b111caed9fc14e8e0fd6fb975802febf7dd8d3dedf95",
    "plain-1": "f9928e07c926315f81917ea5cf52a98237b775d90ddc3acce94341e6ecf1f1b1",
    "plain-2": "201188d5bc90241c5a5b26593571ce03f7d2a3f116cea13b1edbbbddf1f3adf0",
    "seasonal-1": "640fda0be92170446acd68d9ac52a5658b6d534a563cc77e1c4f888e665c2f4c",
    "seasonal-2": "d3e7cf2ad0d1ccc5459036d5ef2b51869019e7c3c947445002058c3fe2402925",
    "small-1": "6746d9f442f27ce1385cecd988f33c3b20dd03e1847ac37a34c20dd6b74463dd",
    "small-2": "7009394270fa0e41f8800712335d89cc287ca6d8c32ff3a2dff38b7679e0dfaa",
    "small-3": "e028541576d35df26c7db229b849c74417b6e9766326623d37df5a06090fd31e",
    "tiny-random-0..9": "cc812dc0e170bb782f9a77e8ee12447a86cb4c6af9fdf051a1a4c295cee28b47",
    "tiny-symmetric-periodic": "1d3cb89dffec18b01ac7b96963c37fe4bef36fa9a7e949164c8d7d23ecf5339b",
    "tiny-symmetric-periodic-random": "ed9aba85950a4c2b4a2108aa092f27fe29d0820982dd19abb34443ec7159d913",
    "tiny-symmetric-random-geometric": "ec6f7396aa729a9379c12c085e0e7730b52dfb6a4acd46db4b89039ef524d553",
    "tiny-symmetric-random-uniform": "02e0f68764d9fad2ed84912d1057f72a7237719ab00c27a82692babd404c5808",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_departure_stream_is_pinned(case):
    got = CASES[case]()
    if isinstance(got, list):
        got = tuple(pair for deps in got for pair in deps)
    assert _digest(got) == DIGESTS[case]
