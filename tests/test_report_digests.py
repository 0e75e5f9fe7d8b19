"""Report identity: ``latfuse simulate --grid --trials 2`` at seeds 7 and
2027 writes byte-for-byte the reports recorded here.

A change meant to keep results (a refactor, a speed-up) must keep every
digest.  A change that alters the reports on purpose re-records them
(``sha256sum`` of each file the command writes) and says why.
"""

import hashlib

import pytest

from latfuse.cli import run

# SHA-256 of each report file, by seed
DIGESTS = {
    7: {
        "scenario_1.txt":
            "c81c5c1e2d11fd238037cd19ba13ac10c4ecbe61c2c3d7040e4a909fc0c5b8ad",
        "scenario_2.txt":
            "0684aaeefd93972508cbb6fffd86b0ba7a78454f0ecaeb5846460feadfce63c6",
        "scenario_3.txt":
            "f1aa30483349049965c19128c50b4e9bb944f40c6c474e032ff9101b595dd2bd",
        "scenario_4.txt":
            "b9fee9edc4db0d5ff6f972f7e6d55d7bbfd75053de13d5bb9920eec4b0f5e25d",
        "scenario_5.txt":
            "f2107dd0ff48c1af56cfc9cf90063051a9c8e676b9011245575963fec78cd793",
        "scenario_6.txt":
            "d1c0f693cc4bfb8c4641071c60b2e5b61389f0d6372f0093914b0262df6d1cd2",
        "scenario_7.txt":
            "cb9b534f2324c8ae7db47951865f8330f3c754ba88675d5b64fd5dc70604e478",
        "scenario_8.txt":
            "2da53fde61e908ba1d9a1880b535a6882fbde50071491f505b08cb2c10a497a3",
        "scenario_9.txt":
            "2934d64cff5f9cd30e44db507ce2f8e1fab84078f7eeac713de0c24abfd8daa1",
        "summary.txt":
            "a830303cd782fa767bb0658677b80971a5af90be459129fd0c8533882354048f",
    },
    2027: {
        "scenario_1.txt":
            "6b032d3364bd614ef6e8982ef435a3bbbf02c32ef08b3bbeae60a383530f7a9a",
        "scenario_2.txt":
            "2099020e0415d3d9972053b90250fc2b7cf4f986be1127c7b31e6dc464729b0e",
        "scenario_3.txt":
            "f7f0b0ffabe586544f52e3f41be294bf152b01083b3c9cef708492b6a0dffaf0",
        "scenario_4.txt":
            "82c3cd0f7dcf85ba4dd5a434173e2029bac40911ddd8b0290e08fb565ca5dbb8",
        "scenario_5.txt":
            "98c0d3d57b5664cc227392e1cdc04d088ea22b8d8cab805cdeb26743c5ae1b89",
        "scenario_6.txt":
            "f27ee12e9c8112be8fe28f7e4c785a39cd1747d6ae2164cf78a55862068b7b77",
        "scenario_7.txt":
            "cbc754a1966f3a759caa89196d28e22e0087842f3cc92f0fe110b3641f0e40f4",
        "scenario_8.txt":
            "45758514104bd34ae08f1c26f9f21fde1b3cef1c9e30f904cc06503dc994c4ab",
        "scenario_9.txt":
            "28eb8b1acfab71ca4a50576d6e9815ea594e29da39c55b813ebedc1915e731d2",
        "summary.txt":
            "722e42153bb056ef8c008e815d00ea7b9e0011400512f6082796a0f48e76b9b3",
    },
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_grid_reports_byte_identical(tmp_path, capsys, seed):
    out = tmp_path / "reports"
    argv = ["simulate", "--grid", "--trials", "2", "--seed", str(seed),
            "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().out == f"wrote 10 files to {out}\n"
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    assert got == DIGESTS[seed]
