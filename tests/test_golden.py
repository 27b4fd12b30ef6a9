"""Byte-identity of `gen`, `ingest` and heuristic output.

The SHA-256 of every file `gen` writes, and of the counts file `ingest`
writes from its rankings, is pinned for the README walkthrough and the
benchmark's instance shapes at two seeds each (one for n = 24).  Any change to the sampler,
its RNG stream, the aggregation or the file formats shows up here.

The SHA-256 of heuristic `sweep` and `solve` reports, with their `time_s`
fields removed, is pinned on the README walkthrough and the benchmark's
n = 16 and sushi shapes, and on an n = 24 solve whose inner LOP blocks pass
the dense DP's size, so any change to the solver's path (orders, weights,
objectives, per-start trace) shows up too.  So is the report of an exact
g = 1 solve at the subset DP's size limit (n = 20) on a near-consensus
instance.
"""

import hashlib
import json

import pytest

from mlop.cli import main

# shape -> (gen arguments without --seed and --out,
#           {seed: sha256 of instance.json, meta.json, rankings.txt, ingested counts.json})
GOLDEN = {
    "readme": (
        ('--n', '12', '--g-true', '2', '--weights', '2:1', '-p', '1'),
        {
            1: (
                "072f431ef828f3d1fc80d9cbd5690b36088291c9f0b28feb77d877b7b07d802d",
                "03595cac9ce34a5ff97927adb1c64ce55a472115d593a3368810080ca814c216",
                "87a771b26d68f64bc15c7784d3a2a511f82b081eb4ba831956e648ac62f039df",
                "afac92c147385bda4c8f79d88e146f06be6d73934ec27e3bfc12f73acae71d4f",
            ),
            2: (
                "badb302f911b085e42ff866127947ace757badbcae86eff89d9a70c878fabd55",
                "449c7be389b01842e8026acff062ff64adb61c4812227543c5a8ca7505846101",
                "5d15fb78d06a86314bcdc2a9b7f88cc855d5ae58307d48354580edd8643aedac",
                "b7bb8ccad1807c98a3367e0009ed0291215a1c243198b286f232975981c151ea",
            ),
        },
    ),
    "warmup_n4": (
        ('--n', '4', '--g-true', '2', '-p', '10', '--num-rankings', '100'),
        {
            1: (
                "724c51a3909332e6a1079a0205029711010d4fa0cc573f60ecf3ff765697bf0d",
                "e0f08f9ada065d5ce257d77a0cae1c70860166fe2b5183fac17aae9ab74244c9",
                "004fc4a07ad8930f5c1d3039b95dde5946319861508bc7e109078dc3507eeb2a",
                "c2033495065dcda62885ff8a490c3c209789bcd5f4923d61a78c68ca30de8e1e",
            ),
            2: (
                "20840a98c02e1ee1371b40a57bf1867250ae8b662c74283b6a99c82ae8d09a70",
                "316dba2d37896b3a582ef7814a736b7a753b12279350814e1a7d8007129b6d85",
                "84b9b312d36deb7da3b2c3fa099966460ae344b3062cb82b6ab2225368713262",
                "0fd57bce96339a651026877750c039a39789e31d56dfa486b68e9611fdd01c30",
            ),
        },
    ),
    "exact_n4": (
        ('--n', '4', '--g-true', '3', '-p', '10'),
        {
            1: (
                "ccc1762956e336aacfd4401249ecd25372bb7dc0a826b09ee0ad1bdd0db19518",
                "4ae396fbf2efbbd95444775672908112ba3f44d78bd361e0fdc3724c7946fbf7",
                "388dc4a205dbd9b8a9b4c1e39d9dce34706933d6fb6e02d0fc36fe525c9863d4",
                "a175e56cce2369920ccf9fe2bebb34f1abef418ec7edf885d2910abf643b6139",
            ),
            2: (
                "ea5eb1e13687a67f9583a869ecd3744c7128ef6679b7b2a979feb86051152080",
                "7e93951dfab01a0b2abc6a31ecf15a48523ede93e4fcda1d1a8e1d09726863cc",
                "3d9e3fd21946815358dd5f7c76a36c810fd3ccf50c21cca6964bac69f9894a32",
                "c0f1c316fd3a8ec63703e0990e5702ce4c9e63979770d4856564103bfb8d8f25",
            ),
        },
    ),
    "exact_n6": (
        ('--n', '6', '--g-true', '2', '-p', '10'),
        {
            1: (
                "336abae4881c5db8d02b866bc6b114cf73160cb0c652fe821a780d2bb3ab32dd",
                "7c9562369a774b0ca8d781733ef1aed8c5b2a79fabee3445866870f51eda82b1",
                "9c42627537bb7aa0ff594e735f03bbda7ca0076b04b4e741ac93710f044af685",
                "9b8b0a0bb21ebc06d13c9292dc73de37f95ee68cb318883cdd1dbc62dc442237",
            ),
            2: (
                "ecf67adc8380f1f550d6565b52d9b3af75399921a38c4ed96687f5dec7da3f7f",
                "2182295c17d9a20a41479a7e541b6d5493e02ff8294a05b82359696ec21d283c",
                "b8d1b1e4b26a08e5db55ad41654eee557d0fa2fd383a96c1d91bf06ec1cbe17f",
                "4773dfd030796b2a0dd79f5ccc8b1d6e7b00abbc2686d3079ab6db9d440c4650",
            ),
        },
    ),
    "verify_n7": (
        ('--n', '7', '--g-true', '3', '-p', '5'),
        {
            1: (
                "1ed49d795fdbb962466f5fc09a6b6889d6f77e6f37e01c3e90240a6e68b5d6ee",
                "70bcdcc5f932bd40be24a8f6170f506fee3427fb09d170bcce76df7ffeb4d260",
                "d432d95a1f1e5b4457d0ba1daeea3e6f645c1f72bc5c39e019431211526846e7",
                "4b8527b111bb9f4feb375e2daee98dd34252fadd2fcd54f7fc8877efd33a23f1",
            ),
            2: (
                "de90c49460ab252581142e16493a8983f7ebfeabf72fdf6c51336450f6bca78c",
                "8f638e4c0116250bb2c81a926d61487b4e12b30a038606c6d6825f36dbff5a26",
                "60ecb7fc16fed1eec4fddeb23504c6c18d0dd1f8eb6ddd03af5b17809ae788c6",
                "feed4d035644ff2533981188911f9eb79ebd31bec0cd2279d2c728417bf8f8bc",
            ),
        },
    ),
    "sushi_n10": (
        ('--n', '10', '--g-true', '3', '-p', '5', '--num-rankings', '5000'),
        {
            1: (
                "58741632e01164e0ba1dc7da4f6473db7eb2cb7ef17aacc26d2abd3729f3a498",
                "f0f9a2ed8eb3775e478128b387cc3baaadb38b061a7518308fd246ac390fc8fd",
                "50c1d264ef77b6fb03baf2bc28db790bc88fcd46804b505918bbf2f79b3f388f",
                "773f9ac7e2eb51b1f5cff92fff1610aae497909c48962047090fcd84818fcf15",
            ),
            2: (
                "a0dc9a8bfa150fddc8b579a47793ad5a5ec4c26ff85a57e492a02e3cc41138d2",
                "272b683e64706509bfe92dcb21ce7f0e532a3f8535b9d48abc4edd41afcf0fff",
                "c48bf654fb59ba523615444814de74044fea3113becadd75d779d14b89000f41",
                "afb0e3b59827dee964108a9f3b738c94ef3a5e1d839999232820e2b85c5d0df3",
            ),
        },
    ),
    "heuristic_n16": (
        ('--n', '16', '--g-true', '3', '-p', '1', '--num-rankings', '250'),
        {
            1: (
                "67d72b7a45146a0b3168094d4fbc7b428807b58b3142a4eb0e82792350a83cb2",
                "535285d87c8e04de4d735f408f0a6daf49a05f028be23de039cd123f9e96281b",
                "69249212d88175ce556dbfa869418f0dfcd8fac411c23b377f5aebfd77c539c4",
                "d47800494bcde8ebeda1627b00b986a43ad21077b580e22b0d35f5f5bf4660ac",
            ),
            2: (
                "34b6a0aedb52bedd57eba0317dee032f525ff3fe4fc60963aaa2dede54ce10f5",
                "0ac2fa4509c8bd5a8c15c87c4d6e63507a691c8dd62ff293a025b5a28ccf7df8",
                "3870761197752cb9c6b6b40f09709b58f577dce7c74e079b16b7716bf65c2773",
                "e703dbacda84add60aeb9ab4bf5ce3aa8c697ca7b7ce22bb29761cde9e6b848f",
            ),
        },
    ),
    "heuristic_n24": (
        ('--n', '24', '--g-true', '3', '--weights', '3:2:1', '-p', '1', '--num-rankings', '250'),
        {
            5: (
                "3338c8792a6f32caa717a5918302b6c9d3746980a831563b8ee7d95628a007b7",
                "21d4d492735f136f650a9a37822c079df7c4d951387227a30c258e186b41fa1a",
                "11e50f56c330ff66e66d5ee73f287da42d0428acdf10c06a1897a1ffa1aafe16",
                "91ad3c33092907e33e2dc0c4908223bc1b653c1c5c172108c8e6467a63510756",
            ),
        },
    ),
    "exact_n20": (
        ('--n', '20', '--g-true', '1', '-p', '1'),
        {
            1: (
                "7a1e8ffd262bc18d1b73d370bd82f279abadcc77641fc370a2c5f94aba9dff65",
                "1ee9e5afc36f43da1a7e3d9b314a1cd7712fe1a993677c5b351f24e1e51afda1",
                "fd6ff28fbc932bd154a944b779bfa1ac36f67a3c0b92865dfda6ef29432398e9",
                "a53fb242e8834db2e9e1a307062aa3bc8c90a977ae6566fbd7d3eaab6aef2a46",
            ),
            2: (
                "06314c5a954bfb67ed0bb173d40a06e045fa8aa847ae4fa85dc7bfedd0dc08e6",
                "c7d68d4d7c567f0dca01240c62d0a0e1e2e287dc24ef6141df64f1d94d16096f",
                "a9530f5806b522da08b4b44efd92ac2af13ca81f9b75d2356a016dc52ea0ddec",
                "4474447951d5194044f29dc2cd25ccf4bd16c9f935702aace5d323a643a50269",
            ),
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "shape, seed", [(shape, seed) for shape, (_, seeds) in GOLDEN.items() for seed in seeds]
)
def test_gen_and_ingest_files_are_pinned(tmp_path, capsys, shape, seed):
    argv, seeds = GOLDEN[shape]
    prefix = tmp_path / "x"
    assert main(["gen", *argv, "--seed", str(seed), "--out", str(prefix)]) == 0
    written = [tmp_path / f"x.{suffix}"
               for suffix in ("instance.json", "meta.json", "rankings.txt")]
    assert main(["ingest", str(written[2]), "--out", str(tmp_path / "in")]) == 0
    capsys.readouterr()
    assert [_sha256(p) for p in written + [tmp_path / "in.counts.json"]] == list(seeds[seed])
    assert (tmp_path / "in.instance.json").read_bytes() == written[0].read_bytes()


# (gen shape, gen seed, command and options after the instance file)
# -> sha256 of the report with every time_s removed; the instance is x.instance.json
HEURISTIC_GOLDEN = {
    ("readme", 1, ("sweep", "--method", "heuristic", "--g-max", "4", "--seed", "0")):
        "0ac9e91330dfa91e37fa86d09efbdfddc818f0109a68f25acb8e8a96ea6f2b6e",
    ("readme", 1, ("solve", "--method", "heuristic", "--g", "2", "--seed", "0")):
        "e1226d20578a67ea765a5f0dc6e5cee4a6eb14c5ef0426b367f9bd69fc418565",
    ("readme", 2, ("sweep", "--method", "heuristic", "--g-max", "4", "--seed", "0")):
        "0070c275a9ea420de3eba8ed536e0bd6a6f69c80b7d2983c93c6ed96640405d7",
    ("readme", 2, ("solve", "--method", "heuristic", "--g", "2", "--seed", "0")):
        "2fd4dfdcf7f5bbfab08eb5ff65ce0db73be84157a525ec07e6fdad20adf01258",
    ("heuristic_n16", 1, ("sweep", "--method", "heuristic", "--g-max", "3", "--n-starts", "1")):
        "e328f74c482818603ff29fbd7db414e9bb9cf0c92d521bfa998a769073b6c906",
    ("sushi_n10", 1, ("solve", "--method", "heuristic", "--g", "3")):
        "b8f52b3f9e83a03c046f6013caaba5a33f53c82f0a055e73c28331add2f7e09b",
    ("heuristic_n16", 1, ("solve", "--method", "heuristic", "--g", "3")):
        "d296e214cd507c4527c0c84358bd8b136d754d66ecac104f1e49bedf52054420",
    ("heuristic_n24", 5, ("solve", "--method", "heuristic", "--g", "3", "--n-starts", "2")):
        "5f5e68fdcd2301202428a6d5a9ee15bdb067b52b1afca02d5866fc747b9911a3",
}


def _without_time(obj):
    if isinstance(obj, dict):
        return {k: _without_time(v) for k, v in obj.items() if k != "time_s"}
    if isinstance(obj, list):
        return [_without_time(v) for v in obj]
    return obj


def _report_sha256(tmp_path, capsys, shape, seed, command) -> str:
    prefix = tmp_path / "x"
    assert main(["gen", *GOLDEN[shape][0], "--seed", str(seed), "--out", str(prefix)]) == 0
    capsys.readouterr()
    cmd, *options = command
    fmt = ["--format", "json"] if cmd == "sweep" else []
    assert main([cmd, f"{prefix}.instance.json", *options, *fmt]) == 0
    report = _without_time(json.loads(capsys.readouterr().out))
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("shape, seed, command", list(HEURISTIC_GOLDEN))
def test_heuristic_reports_are_pinned(tmp_path, capsys, shape, seed, command):
    sha = _report_sha256(tmp_path, capsys, shape, seed, command)
    assert sha == HEURISTIC_GOLDEN[shape, seed, command]


# the same for exact solves
EXACT_GOLDEN = {
    ("exact_n20", 1, ("solve", "--method", "exact", "--g", "1")):
        "c4300c249fd0d1dc1cbee60a2765175e486dddcaeb67fe59a3eeaeac4d433841",
    ("exact_n20", 2, ("solve", "--method", "exact", "--g", "1")):
        "fdd47d2280752ddeed8d11df7ea51e3841949094a204c1788e6de15268e46df1",
}


@pytest.mark.parametrize("shape, seed, command", list(EXACT_GOLDEN))
def test_exact_reports_are_pinned(tmp_path, capsys, shape, seed, command):
    assert _report_sha256(tmp_path, capsys, shape, seed, command) == EXACT_GOLDEN[shape, seed, command]
