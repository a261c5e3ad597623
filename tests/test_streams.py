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
from podrepo.instances import (REGIME_RANDOM_GEOMETRIC, REGIME_RANDOM_UNIFORM,
                               REGIMES, build_medium_system, build_small_system,
                               generate_departures)


def _digest(departures) -> str:
    pairs = tuple((int(h), int(s)) for h, s in departures)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def _queued(regime):
    """Twelve pods on eleven places, queues of capacity 2 and 3 that start
    non-empty, and pod weights with zeros next to positive ones."""
    return generate_departures(
        12, (2, 3), (1, 2, None, 4, 5, 6, None, 8, 10, 11, None), ((3,), (7, 9, 12)),
        regime=regime, seed=7, n=400,
        pod_weights=[0.0, 0.3, 0.0, 0.0, 1.5, 0.2, 0.0, 2.0, 0.7, 0.0, 1.0, 0.4],
        station_weights=(0.3, 0.7))


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
    # the last season is partial, and every step of the next case opens one
    "seasonal-3-partial": lambda: seasonal_medium_instance(3, n=4500, epoch=2000).departures,
    "seasonal-1-epoch-1": lambda: seasonal_medium_instance(1, n=50, epoch=1).departures,
    "medium-uniform-1": lambda: build_medium_system(
        1, n=20000, regime=REGIME_RANDOM_UNIFORM).departures,
    "plain-1": lambda: plain_medium_instance(1, n=10000).departures,
    "plain-2": lambda: plain_medium_instance(2, n=10000).departures,
    "tiny-random-0..9": lambda: [build_tiny_random(seed).departures
                                 for seed in range(10)],
    "queued-random-geometric": lambda: _queued(REGIME_RANDOM_GEOMETRIC),
    "queued-random-uniform": lambda: _queued(REGIME_RANDOM_UNIFORM),
    **{f"tiny-symmetric-{regime}": (lambda r=regime: _tiny_symmetric(r))
       for regime in REGIMES},
}

DIGESTS = {
    "medium-1": "6e2483fea5bd3a750214b111caed9fc14e8e0fd6fb975802febf7dd8d3dedf95",
    "medium-uniform-1": "f406137d2c29252debe6ab555e14b416a12ad6548f2a0c4d4e3169e39bc15f96",
    "queued-random-geometric": "f3257d71d0c04b0f9270c6149a9067b717e15f693da0d6ddde9f7f3191ee4e13",
    "queued-random-uniform": "5c2bc81a470abc4e456ee2baa6b52ec0b635070b2c89bc9aa58a3e737a40f7d4",
    "plain-1": "f9928e07c926315f81917ea5cf52a98237b775d90ddc3acce94341e6ecf1f1b1",
    "plain-2": "201188d5bc90241c5a5b26593571ce03f7d2a3f116cea13b1edbbbddf1f3adf0",
    "seasonal-1": "640fda0be92170446acd68d9ac52a5658b6d534a563cc77e1c4f888e665c2f4c",
    "seasonal-2": "d3e7cf2ad0d1ccc5459036d5ef2b51869019e7c3c947445002058c3fe2402925",
    "seasonal-3-partial": "9ffebebf1ac11a52fa3fba8530bd68b08acf00795e964eae54058d76bb1dad08",
    "seasonal-1-epoch-1": "1931d17aeccf0ba0fe0a59a50bc774fc49bd5f1f8e1f45608e014dc56a8e785b",
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


@pytest.mark.parametrize("n", [0, -3])
def test_no_steps_give_no_departures(n):
    assert seasonal_medium_instance(1, n=n).departures == ()
    assert plain_medium_instance(1, n=n).departures == ()
    for regime in REGIMES:
        assert generate_departures(6, (1, 1), tuple(range(1, 7)), ((), ()),
                                   regime=regime, seed=3, n=n) == ()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("n_pods, capacity, regime, pod_weights, message", [
    # one pod and a queue of two: the second draw finds storage empty
    (1, 2, REGIME_RANDOM_UNIFORM, None, "storage is empty"),
    # the only pod of positive weight sits in the queue at the second draw
    (2, 1, REGIME_RANDOM_GEOMETRIC, [1.0, 0.0],
     "the stored pods' weights must have a positive, finite sum"),
    (2, 1, REGIME_RANDOM_GEOMETRIC, [1e308, 1e308],
     "the stored pods' weights must have a positive, finite sum"),
])
def test_draw_error_text_is_pinned(n_pods, capacity, regime, pod_weights, message):
    with pytest.raises(ValueError) as raised:
        generate_departures(n_pods, (capacity,), tuple(range(1, n_pods + 1)), ((),),
                            regime=regime, seed=0, n=2, pod_weights=pod_weights)
    assert str(raised.value) == message
