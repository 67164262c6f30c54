"""Every experiment's grid, pinned point by point.

Each registry record, at its quick and at its full scale, hands one list
of :class:`~repro.harness.sweep.SweepPoint` to
:func:`~repro.harness.sweep.run_sweep`.  The test captures that list --
``run_sweep`` is patched to record its points and raise, so no point
runs -- and hashes its canonical JSON: the point function's name, its
parameters and its seed, in sweep order.  A hash that moves means a
point's cache key, or the order of the points, moved; and since the
first sweep raises, an experiment that split its grid over two sweeps
moves its hash too.  ``table1`` reads the specs and sweeps nothing.
"""

import hashlib
import json

import pytest

from repro.harness import sweep
from repro.harness.registry import EXPERIMENTS

#: sha256 of ``[(fn_name, params, seed), ...]`` per (record, full).
GRID_SHA256 = {
    ("table1", False):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("table1", True):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("figure1", False):
        "db137257750ec0f3d45b2ba7f1934054b6dd83b56f603e6bb4abfdf00c07650c",
    ("figure1", True):
        "bee716cc303c7e156886db9d11c6e1cc02a9c7cf068caa63185759cb9c15deac",
    ("figure2", False):
        "3faf7ee0fdecbe30a6431ed9d187bc35f6a775df76bb649062f465f3bd0a9ce6",
    ("figure2", True):
        "1a92e936e8735ff352e16b8349f939671627d411a3235ae7ae8fe17b316f827c",
    ("figure6", False):
        "08561c6b6471820626aa5a864481ef988539f3b5373e29d0f62a91d0d1752345",
    ("figure6", True):
        "29210a2097a9e427c464ea75dcb4912273f940aa9fb5d45fbf984f07515fe054",
    ("figure7", False):
        "bf3b235ba6f2bbb0b24128d209b5fe564744e3d55ee0391cb52136c6e606f429",
    ("figure7", True):
        "b94949669aefe608a611188a0b03b53743703b1ed73c87b3f01e48747fb55cd1",
    ("figure8", False):
        "3f80418d1d49721b7e557a76e2f33216f6def777f68b7172effed4604156e5bd",
    ("figure8", True):
        "4a2f183438e7db398b35d636743bfd6928b2ba6d3fc411540a8d9bef13a831e4",
    ("table2", False):
        "152b70a4b12112d0678162b2a787ecaeccfd1fb1332b2334bb1b92f2dab2d34e",
    ("table2", True):
        "bd76d50be2d6ab584575deca27e2f426fa675cff1efd2f3ce0b430db59847c00",
    ("figure9", False):
        "152b70a4b12112d0678162b2a787ecaeccfd1fb1332b2334bb1b92f2dab2d34e",
    ("figure9", True):
        "bd76d50be2d6ab584575deca27e2f426fa675cff1efd2f3ce0b430db59847c00",
    ("figure10", False):
        "6f9da31734f7201283f4e9b3c020cd6d8773bae53c22ad72cf2ecf3b87c35f13",
    ("figure10", True):
        "9c2662e5eec09f365de7782f5a8c1b45f747690381935de6070c8616b9d9f233",
    ("figure11", False):
        "58b60db0a1d114fc03dbbe4670f38fc0e9aa7f17bd6dd3943f2bddb88679522d",
    ("figure11", True):
        "e71bf5817752fd818cfe6ce6cdb3578baa6ddb76dc57d5ecd3540f9d8c7da107",
    ("figure_qdepth", False):
        "6a79c44e4440ae9dd7cc6c45e4c737d4b65b2d9b0d2525edea4370f48dbcf8f4",
    ("figure_qdepth", True):
        "8fb6dd652c69b2ac19b4e2c5bfe8c0cc7684c99741e684e8f7762225e8704fce",
    ("figure_multihost", False):
        "19f7aedca1a9b04e1f67d8bec380d629d358e54b32f2862c539fe70d5b957e82",
    ("figure_multihost", True):
        "b906efc8bf83bd18f45bcfe33b53bd8f4e7efec8477f466d83ba06f80e8cb100",
    ("figure_nvm", False):
        "86360d3b8f010cfab1d33dabded64e58bb86f6bb188556400cba8cee960418e0",
    ("figure_nvm", True):
        "0595d085a160af6ad2dbb1ae684f8944909526894f97dcb37c4400b179c83242",
    ("ablation_allocator", False):
        "f179ad76c24fc9d0f16c02d20448ea17947fccae2a370d7c437b2941c1dd35a2",
    ("ablation_allocator", True):
        "a6dff6ef0ab602e6d18d3344e3847e3308297298bc1a627cd0a6c30fa112cd3b",
    ("ablation_cleaner", False):
        "1eff1ba4d2cdc0e8fd273411de93026e61a10705be696f2a9f461f7f353228e2",
    ("ablation_cleaner", True):
        "e074a7b665be6c36f8b729bee1750fa8ecb09a16a61cc626dd5e8b5cae1b6699",
    ("ablation_compactor", False):
        "0635a394ab12330ecde3cdbfbf6ca024d832640f710bde3b9b11d4989721921f",
    ("ablation_compactor", True):
        "42bbe1ba105454ec87ebcc187082e0e9389c00f27fb1439b4a69e3cee2780e38",
    ("ablation_mapsector", False):
        "baadf5845b15f1393eb37fa62fbedd878bd39a51af703f454e2a32ca6ab58a1e",
    ("ablation_mapsector", True):
        "275689deefddf785ceb0ee06ac45403ab53c9ae0b47cd504e67f970a3d689b71",
    ("ablation_trackbuffer", False):
        "27dc6080e0d91f9affe17a2e47e6003e354dc6666e8ca20f75cd2f8269a072c8",
    ("ablation_trackbuffer", True):
        "2b7a693e384f09e7878e0f092ce03245f600deee365e2a9b935790f70e9b78d5",
    ("future_trends", False):
        "76f188655978e2db43332b9635b19209a8c3a87bdf88eadc277f7148e8028e9d",
    ("future_trends", True):
        "0b41151d53a77ececbb8ee3b152a436538dd1b8e74018944a16aabc7602cda18",
    ("reorganizer", False):
        "0067fccb261fb86310855b23fb42be58379a730220bee23ceaca05842ec49319",
    ("reorganizer", True):
        "63bf7719d4538f5ffb167ad5975595a34c4e6ea72d37321d9ce78dbc27134f23",
    ("vlfs_deduction", False):
        "f60b636da2a8dbd8d254a1cf52192824616c3f0699d64c04ea7c1dede987c9b3",
    ("vlfs_deduction", True):
        "733f19a834e87eaae535768ef862d2c8bfbf5779bb9ead096c8a691c34543b6d",
}


class _Captured(Exception):
    pass


def _grid_of(name: str, full: bool, monkeypatch) -> list:
    captured = []

    def capture(points, jobs=None, cache=None):
        captured.append(
            [(point.fn_name, point.params, point.seed) for point in points]
        )
        raise _Captured

    monkeypatch.setattr(sweep, "run_sweep", capture)
    record = EXPERIMENTS[name]
    try:
        record.fn(**record.kwargs(full))
    except _Captured:
        pass
    assert len(captured) <= 1
    return captured[0] if captured else []


@pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_grid_is_pinned(name, full, monkeypatch):
    grid = _grid_of(name, full, monkeypatch)
    digest = hashlib.sha256(
        json.dumps(grid, sort_keys=True).encode()
    ).hexdigest()
    assert digest == GRID_SHA256[(name, full)]


def test_every_record_is_pinned():
    assert set(GRID_SHA256) == {
        (name, full) for name in EXPERIMENTS for full in (False, True)
    }
