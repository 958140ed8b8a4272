"""Golden SimStats digests for the cycle-level simulator.

Pins every statistic the simulator reports, bit for bit, on the runs the
DRM oracle depends on: the 18 microarchitectural configurations of gzip,
art and MPGdec (one cold ArchDVS decision each) and the Table 1 base
machine for all nine suite applications, at 2k + 0.4k instructions and
trace seed 42.  The digests equal the ``sim/...`` and ``qual/...``
entries of ``benchmarks/e2e/golden.json`` (full mode), so a simulator
change that moves any of them fails here, in the unit suite, before the
end-to-end benchmark would catch it.

A change that is *meant* to move simulated results regenerates both.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config.microarch import BASE_MICROARCH, arch_adaptation_space
from repro.cpu.simulator import CycleSimulator
from repro.engine.store import encode_workload_run
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import SUITE_NAMES, workload_by_name

INSTRUCTIONS = 2_000
WARMUP = 400
SEED = 42
DRM_APPS = ("gzip", "art", "MPGdec")

#: ``app/config`` → digest of the run, for the 54 simulations of the three
#: cold ArchDVS decisions the end-to-end benchmark times.
DRM_DIGESTS = {
    "gzip/w128-a6-f4": "8674a205329b3de7a9e7b204a31714da82dd0f1b94debb3caa09fa89d5cfbb02",
    "gzip/w128-a4-f2": "41f1fa89a882409745c129caedc0c43d8f765527c9f48b293159fcc96c57362c",
    "gzip/w128-a2-f1": "762675987d9f55905367c8dd540acdba97d6b936a9284ad27514a152c90018a7",
    "gzip/w96-a6-f4": "38d76dc56548a6e5d5cb4e0a9adf44e364d4c22eb715a52f54023d4f9cab416a",
    "gzip/w96-a4-f2": "e5d2c367946b7ad5dbc30ec153ab2a8494b4d4173071869627eb468bb9024da6",
    "gzip/w96-a2-f1": "70b77eca0b4fcb2e8744e9e0872f6ac9ecbbde10eadbe6caac31be31393b7d25",
    "gzip/w64-a6-f4": "0aec2b5d6bfdd58c7743c3b3087e2350afc569146c29cac533fa333343f16610",
    "gzip/w64-a4-f2": "fafab3bacfa7c6c5d19fb9ca76029f4bd3176783d6ecd57d3df97640318cc4e4",
    "gzip/w64-a2-f1": "01ea9fe966c271790f35e7670ece3fb561cfb3ba2e8e77e7e99f7b90a94c1e01",
    "gzip/w48-a6-f4": "73158b94aadbc54cb2a09dc98c6db59f15c17557297dbdc4599546721d503880",
    "gzip/w48-a4-f2": "49fc35a6f14422aa7fdff1e985ed9b15f449840ea823bb79e5fc1468a089cd8d",
    "gzip/w48-a2-f1": "4e61660e4b39e4115176d57f72d461115c4cad0a633dfb0d75aaf3fd09e6562f",
    "gzip/w32-a6-f4": "416eb72ae9ab148ecc1d070f5bc51274fa72da6002bd6f01825b8335e6f96d9f",
    "gzip/w32-a4-f2": "381809f22b98c4e123e8bf17456d460dc8215ecad8b86c05a77081cd87cf31b9",
    "gzip/w32-a2-f1": "88be0a2dcc5e286ecce582129d1eb737c008cb4004e1f61348df8384a89bf4d7",
    "gzip/w16-a6-f4": "6f765ae07c1b2492a0483890bb0b8273c7742735de494e24f89cd301be3377a0",
    "gzip/w16-a4-f2": "dd7cca43c33d323c41760a6576b33061889e9b00ccb8d178e00ee90830787990",
    "gzip/w16-a2-f1": "778bcaea826077c1a0051cd7a1a181efd7d2041e712109377d5e7a8ae3bf2095",
    "art/w128-a6-f4": "d95b061845346bb05dc0928b60e96afa3b6f083ac13ef021df162979814c2cb2",
    "art/w128-a4-f2": "a316747d2b48f8a90b62274ca4f3f3ffd03d8a6d11d6c489e12605564ec940c1",
    "art/w128-a2-f1": "07743852da06fa6054d0fbb3fd555c254201191062d78d7ef288be7d008b0af7",
    "art/w96-a6-f4": "58992e6b0ae0a71b1552534465686f3044513de7573251c9ae03a8fbc2158f95",
    "art/w96-a4-f2": "09e945bf3a5097a264aa08f534e66842767ccaa1acbe464524b13b770aae9f55",
    "art/w96-a2-f1": "785fa70ec127ad232064b057b115f9010d8850b319688c50a063a39ecbe133cd",
    "art/w64-a6-f4": "f1fec3779ac7ba286ba13bee9929bb0359de0d40bfd5bfc477335e6f4fc6d183",
    "art/w64-a4-f2": "9738c3cddcda26afe7c9cd0451a587f05a3cc06eef9cdeebf621488960e3e17b",
    "art/w64-a2-f1": "88f07a1d14bfdf29e4816affce306c104eee67061f85edbdcbc73aaa24b6e662",
    "art/w48-a6-f4": "7e6732c0c955a59272bf2b9395a7219ed4f7dd487c9a9bccf6f9595b8b119b0c",
    "art/w48-a4-f2": "53bac29aaf8a2d2877064d1265700fefc975dbbd5a89d641a9e084306b8289d2",
    "art/w48-a2-f1": "674baab26041efc2995fc2d14b35276015bc5bc425605bdca0014034f4d47333",
    "art/w32-a6-f4": "4abdcc4c26b94a4cca4fbeb9a71fc7b10b1455123e336cf8e535d87ef5f1f1e6",
    "art/w32-a4-f2": "7717529bf6355dee5a7803e7ed8ff7928e5aa1f033dd749cef9e0f1102c6da03",
    "art/w32-a2-f1": "b979b69fecbe29183199792d2db0f3a9680dc81715d10bea484604abae12b031",
    "art/w16-a6-f4": "0b25bde1b0a117165ea1788bed740bcd362e8d653fba9361a136653a6fc8ef08",
    "art/w16-a4-f2": "1cde41d49fdcd4b20fd8d909bb5c6d4a390445a6ea53a979d28e2a78a75b1546",
    "art/w16-a2-f1": "e09ca29a207c7c1dd01a67fbaeadcb4554bb9c3e6bffbf5a5632fadf16b02726",
    "MPGdec/w128-a6-f4": "3d1d773e52a92788f58d5c1a8ed15e33abf31a267ebda38eb2f5cbc49b622679",
    "MPGdec/w128-a4-f2": "02f7d59351b1223f29767172666b5d39164469beb8483ab35ae9012697126a92",
    "MPGdec/w128-a2-f1": "7999d18380b1d1249bd7281429b404180de0929976f91f7a5d8ebdec7541a8d3",
    "MPGdec/w96-a6-f4": "8b633b1d55de340c68e13d44c5ed3f264e2f4f4b09e4928ccbafd61455aab2a7",
    "MPGdec/w96-a4-f2": "def51cf6f9c6b25a4a201880eb823c55b4698d3454c8a1ad4b053792e9573d24",
    "MPGdec/w96-a2-f1": "7673d442cba2563ce44d5a6de6c88dee10a32b841203e8b73a4ebc68ddd2e2dd",
    "MPGdec/w64-a6-f4": "c6709e21122db37ec4c0e295c588a2d1d94263d50b307f5495e0b6c60f2b6799",
    "MPGdec/w64-a4-f2": "4013373afcc5570230f812d7ea45fc177d2f544fae4dc7c833ad58c8b22edcf6",
    "MPGdec/w64-a2-f1": "b2b7c8806a101dd1177ba859143faecc998f8b54acd1b5f70fb1de89dcecc0b7",
    "MPGdec/w48-a6-f4": "2491a72449744b6a33b4ee7bdfe3a8357e95d816078faade593e24c29561e053",
    "MPGdec/w48-a4-f2": "b1862aeeb1a540df5c107070b5897352db096c4984196046d01d56a8eddcbd2e",
    "MPGdec/w48-a2-f1": "06c82ca88fccb4f1b0055bbe9154aa2a81d25a165f7a5d19ca2c12520366415d",
    "MPGdec/w32-a6-f4": "cca95613ecb1c8231ca39a4d1de066b42b3e679ae51dc8aa2d9c07d7c04823b8",
    "MPGdec/w32-a4-f2": "afe664512222c3d4afc465ff501986344abc296eb13584007dfb97b04d335ebd",
    "MPGdec/w32-a2-f1": "e686415dc16e02dca244d1cd721c1341f52a060f113efb93ffbe3d814aff290f",
    "MPGdec/w16-a6-f4": "66c75800065a57cf25ed62d3d44ff52b818281f65d9267fb907afdc2fe46437d",
    "MPGdec/w16-a4-f2": "c74a398ab6586ce281e26a47a59c17fe6715797bdc6ee3f138be089cc1ded80e",
    "MPGdec/w16-a2-f1": "e8ecca6a88e8a15759403d8e5c8a7b6a70686478402f9c63c02d0087d844abbb",
}
#: app → digest of its run on the Table 1 base machine (the p_qual runs).
BASE_DIGESTS = {
    "MPGdec": "3d1d773e52a92788f58d5c1a8ed15e33abf31a267ebda38eb2f5cbc49b622679",
    "MP3dec": "e178c2bfa6b1bf2c3ed2a7a5dc934dd80314753869f13bf0a6d4366b7e3e0618",
    "H263enc": "9edc205ec37962ef4c16a45e2e879d47474fec6c75ffb6c9f32ba5c4d5f823e9",
    "bzip2": "1ded5bb13b28d62a048bbc44261c0b520264b944763dd3205e83110fa5e94997",
    "gzip": "8674a205329b3de7a9e7b204a31714da82dd0f1b94debb3caa09fa89d5cfbb02",
    "twolf": "f30271660d54b98100d2b437e7adccdd43a699be1fa682e3536c86b7986312a7",
    "art": "d95b061845346bb05dc0928b60e96afa3b6f083ac13ef021df162979814c2cb2",
    "equake": "aeb4e1864cdb829197c9f15ccbff222aa9f9e45135374e0a510698241bb6afec",
    "ammp": "5885de0e6cfbe6f2621556236b11c57bed282cd6a13b47917755f64e0a1fb663",
}


def digest(run) -> str:
    """SHA-256 of a run's canonical JSON payload (floats exact via repr)."""
    blob = json.dumps(encode_workload_run(run), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def independent_run(app, config):
    """One simulation on its own: no preparation shared with any other."""
    return CycleSimulator(config, INSTRUCTIONS, WARMUP, SEED).run(workload_by_name(app))


@pytest.mark.parametrize("app", DRM_APPS)
def test_cold_decision_simulations_match_golden(app):
    configs = arch_adaptation_space()
    cache = SimulationCache(INSTRUCTIONS, WARMUP, seed=SEED)
    runs = cache.run_many([workload_by_name(app)], configs, max_workers=1)
    got = {f"{app}/{c.describe()}": digest(runs[(app, c.describe())]) for c in configs}
    want = {key: value for key, value in DRM_DIGESTS.items() if key.startswith(f"{app}/")}
    assert got == want


def test_suite_base_runs_match_golden():
    assert set(BASE_DIGESTS) == set(SUITE_NAMES)
    got = {app: digest(independent_run(app, BASE_MICROARCH)) for app in SUITE_NAMES}
    assert got == BASE_DIGESTS


def test_shared_preparation_equals_independent_runs():
    """Runs fetched together (one preparation per profile) are bit-identical
    to independent simulations — also when the cache already holds some of
    the pairs, so only part of the preparation's uses are simulated."""
    app = "MPGdec"
    profile = workload_by_name(app)
    configs = arch_adaptation_space()[::4]
    cache = SimulationCache(INSTRUCTIONS, WARMUP, seed=SEED)
    cache.run(profile, configs[1])
    runs = cache.run_many([profile], configs, max_workers=1)
    for config in configs:
        expected = independent_run(app, config)
        assert encode_workload_run(runs[(app, config.describe())]) == encode_workload_run(
            expected
        )
