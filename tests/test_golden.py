"""Golden sha256 pins: bit-reproducibility is the product contract.

Pins cover the session files the simulator writes for every built-in map x
policy x seed in {0, 1, 2}, the metric table over that corpus (file and
stdout), each `stats` analysis over that table and each `timeseries` metric
(in csv, markdown and json-lines), the correlations of a table with a
constant column, the committed replay in demos/out/, and
missions on a small map without border walls (field-of-view windows clipped
at the grid edge, targets on the outer rows and columns). A pin may change
only in a change that says in CHANGES.md why the output moved; the
assertion message shows the new digest.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from teamcoord import Role
from teamcoord.core import ActionTag
from teamcoord.cli import EXIT_OK, main
from teamcoord.metrics import SeriesMetric
from teamcoord.session_io import write_session
from teamcoord.sim import AgentPolicy, PolicyKind, builtin_map, policies, run_mission
from teamcoord.sim.maps import map_from_ascii

MAPS = ("small", "medium", "corridor")
POLICIES = ("random_walk", "greedy", "coordinated")
SEEDS = (0, 1, 2)
REPLAY_DIR = Path(__file__).resolve().parent.parent / "demos" / "out"

SESSION_PINS = {
    "corridor-coordinated-s00000.jsonl":
        "8fe52c74591aa84534beb589f93d0e571a3223123fe706adc873cc4241529a38",
    "corridor-coordinated-s00000.manifest.json":
        "9f9726b106beeb8843515c3b52aca4285f16dc8c2cfc1c735fba8be588ecadfe",
    "corridor-coordinated-s00001.jsonl":
        "9ca577d1e4b79660bbc1b57ed8c7a6d3efaf7cb9422b72526752af0cf7b991d2",
    "corridor-coordinated-s00001.manifest.json":
        "bbc93e0cc5aeecb5585a261178dfa688b73c0c59ac7b7b60fec4fb9cb2fae271",
    "corridor-coordinated-s00002.jsonl":
        "da115e045b55e57d2dba856ea1fa2fec9f9ea797917a3870ec1bebf5206d6001",
    "corridor-coordinated-s00002.manifest.json":
        "147612cf1c1391d6d9e61c6c35515e7b31d9541edb59113efb774e550841bb70",
    "corridor-greedy-s00000.jsonl":
        "ad4f7d015f5b7ff236570a08856a8f875c198f1b8f4750cac1caed7748af6c7c",
    "corridor-greedy-s00000.manifest.json":
        "b030d648e63027b0cc17ed5598d12348aa6472c94713735b701e2957d84a55d3",
    "corridor-greedy-s00001.jsonl":
        "77a3f812791956120af4760d323d37959881f2fd204e7cfe7c7b734c119ccb2d",
    "corridor-greedy-s00001.manifest.json":
        "a36af54652c842c5afb8f186d76bb5c23f039e972c5a34e3c8a2ba20010e9b15",
    "corridor-greedy-s00002.jsonl":
        "d61da3fdc1b9b1a1dad78e4679a99aeec97756ae612cafe1f15512aa8e383ec4",
    "corridor-greedy-s00002.manifest.json":
        "6495c6b2160debe243a0f1e03bad9f3a6e44d4ef05bc2990eddc7afdaacbadc5",
    "corridor-random_walk-s00000.jsonl":
        "1d28cffee2adbbf59cd2ae2fab2f3091e8dedbe9fffc5af1f60c2190026a7548",
    "corridor-random_walk-s00000.manifest.json":
        "6e739b66d0c36dfcb05f0c8a1a1cefcdc42165486ddebad7003048ba03dc6716",
    "corridor-random_walk-s00001.jsonl":
        "e854ef939fcd6dc67f8d869c262c6599408ff310b039651dc18faae307844a74",
    "corridor-random_walk-s00001.manifest.json":
        "f594d1db8314c6f758a26bc797ca1b6a0765a91a200f634c3f076d026f38e9bd",
    "corridor-random_walk-s00002.jsonl":
        "c5db0a79d11156facc3d155bf624435159ea30f8e730df67927e8f0876a761d5",
    "corridor-random_walk-s00002.manifest.json":
        "5b7c39db718286bd8c0fc943f14193f3ef481db70e199e4c991d51528f7d4769",
    "medium-coordinated-s00000.jsonl":
        "1a04041c11d4193c8b058de57631750b96cea6fe2e5a116dd3000bd074b7d19d",
    "medium-coordinated-s00000.manifest.json":
        "dc5b7157e67d1dd6e21af844151c9b273bddf872675be715e352eaef36e56cd8",
    "medium-coordinated-s00001.jsonl":
        "995a8185e57df2adf404c7f69973b8e407774e76335d97d8c044285a05ff0314",
    "medium-coordinated-s00001.manifest.json":
        "aa37b6415343e7a2f121d035a29b99eb62ee9e2300c90484e5cd9c609f669932",
    "medium-coordinated-s00002.jsonl":
        "6c2198557db808c408f7ae4dd396838cf9429bf2e9ce10efeaf016951d5165b1",
    "medium-coordinated-s00002.manifest.json":
        "c6bdadb65c7e4819b3c22cbfd6a69071a581a3acfce96808c076caaad87b4bfd",
    "medium-greedy-s00000.jsonl":
        "a80b627ee97af3b1bd2ac4d8d30ca568e29888b061b7044bf8add1f9d00f2a43",
    "medium-greedy-s00000.manifest.json":
        "96b0f0e2a213f3324420ac9983e513ec418f32600ce0a080afa8ca74b40e85a9",
    "medium-greedy-s00001.jsonl":
        "c66729cdbf0c3426d7f1a254e29e4d8489fae55a86c1a7f5fb50d721dd814714",
    "medium-greedy-s00001.manifest.json":
        "f7fbebb78da7a7055621de6d948d42ccca6c32625dbb8d2311584075d270f385",
    "medium-greedy-s00002.jsonl":
        "610038f463d7dbedcd85f70970986126e407231b23af74fcc67d7f75043a580a",
    "medium-greedy-s00002.manifest.json":
        "855becc32a0abc16a4dbd879bd7d042bf8e77a447125fd91261b212e8a7bdae8",
    "medium-random_walk-s00000.jsonl":
        "258a562dcf4d1ecd2c96c174e7571af04a351857b1332885a3df0830ce0bcc90",
    "medium-random_walk-s00000.manifest.json":
        "59639999a42a4f209f794d754a999705e82b2912ea1bc51cd9710bb26a846cab",
    "medium-random_walk-s00001.jsonl":
        "31d1d2ebe6cef6eab0fd4d2679a1fda0288143dcf881869c0a8489d372140b35",
    "medium-random_walk-s00001.manifest.json":
        "720f3f0de7b800a551a15bc346f511b33c6287af18042f526ca30a080e29b116",
    "medium-random_walk-s00002.jsonl":
        "eaea99fd5825ca80df6dade285b4999a2809a674bdf08a5cd23e17a00eb7f05d",
    "medium-random_walk-s00002.manifest.json":
        "6f1b04ed3a0ef4dc956635c95ec49468368afd6a63c53e94834376e27a12071a",
    "small-coordinated-s00000.jsonl":
        "7fe66760861bff01dd5ef8c2d70d1bcf98fc8d8a05ac3c342bcf3cd2d5451684",
    "small-coordinated-s00000.manifest.json":
        "df40310d00edbdd486a9089665f208e989ab012153c0e71d83398c5ac9ab3ff4",
    "small-coordinated-s00001.jsonl":
        "66e451497fbae21cb2f42876f763496ae0171cdf5eef268d60c45bd0951fcb1d",
    "small-coordinated-s00001.manifest.json":
        "f1156b1a93aaebe925796ddf59c492c857fb59c02f179f6330bde7a0b88d7e43",
    "small-coordinated-s00002.jsonl":
        "634fad594b46b1eeb49583bf279b7d82516ae5edaa179237d51f095e1d52e85f",
    "small-coordinated-s00002.manifest.json":
        "d84ecfbda46390e2ef048a6a4f0b82aa111e1c8153be9c01aa9cbf25fc8025eb",
    "small-greedy-s00000.jsonl":
        "4b39914d72a07133e0aa8bf7664155039f3c219c17af638590813d56d7230d82",
    "small-greedy-s00000.manifest.json":
        "c83bf57efa9ab02dfcbe3c0517621ba1754bc4146971ab56ba0a9afd7cc61440",
    "small-greedy-s00001.jsonl":
        "7eb12ed76afd3a279059165ded7f56d790a2e7e5f18cffb9789e4aac09cb5860",
    "small-greedy-s00001.manifest.json":
        "0fae12caccff774c37bf56426d12f264e8c2c2d07d1965d1dc981fa68f46c90b",
    "small-greedy-s00002.jsonl":
        "33037b98101c0153b8d8ea63be07c3bc3532c0db1f3381ba8f643edf8f39c00e",
    "small-greedy-s00002.manifest.json":
        "e49670f78aefa352d5015b5a9e7d25948fff2d802ea0171ea11b954389cee005",
    "small-random_walk-s00000.jsonl":
        "f5e2dcbaac244de5f81887d18003b8659c0dc46310ef2ada3221e7f45ce65752",
    "small-random_walk-s00000.manifest.json":
        "a5e13fd4b7cb2a29b0fb410ff29681a1eada4867ea71c29e670face3e2942414",
    "small-random_walk-s00001.jsonl":
        "3ae3c44dbe7c5cc69c615963cde5d473a0215a9d2fff7e6ea56b51d83acbb2aa",
    "small-random_walk-s00001.manifest.json":
        "bba586b7a84f6e303e15d92f9a17249e7c7aad90a4493f2fbf9e2de094d50c42",
    "small-random_walk-s00002.jsonl":
        "d3377f8469d6c6670762e849fba29dfb3e87f39a4de3e4636bddfbc3abd26c5d",
    "small-random_walk-s00002.manifest.json":
        "e3e36c60a28f356183210b6807d86412d53be3e84cd55ecd1ac35b8f8f49c200",
}
TABLE_PIN = "cc0facbc9f0304e67559b862493c3d5a84354de6424d88024e9b1bccc4ff2fee"
STATS_PINS = {
    "correlations":
        "6d254b8da0c79bda67eddb30dfdf1f83b28adea6fe40a1b5385ec8b024a29287",
    "regression":
        "5641441ac6d1499d66bcf5b62db90623cae25c421c610924f0458dbfc7877f13",
    "quadratic":
        "037860e5f2e35af0152a759a36cad80e453ab8f7a1d8069d274feb47b2581e78",
    "mediation":
        "bc41c5c2ecee52aea91a4a22b16301e06c00dcb1349aec980796db1dc0dea8dd",
    "groups":
        "4e6e9bd9f383a185a9bbcd165912efde9a5e2e4d6e0c77a73fcf9c86e640cfb0",
    "timeless-anova":
        "a9e8584e5320b2a6d802d06228c082e5b17bea2940896a86c19af8192e60c2f9",
}
SERIES_PINS = {
    "sed":
        "909faa35be313ac73d890d0556d5945a8b86bbc9f02a889a83eb1c384d88bdc1",
    "sms":
        "504d42179873ee3e3ee2caaa5d53fdf84cbc2c2195d69cc349ef3aaf6dff30d3",
    "spa_rolling":
        "185b049a4d43f8aedf05bc31fb24d0382741e290e5cc6e9beb7f21ec5314e577",
    "inter_role_distance":
        "169929448484417ece0b355e448b9fa14497581746aad8573a21307a17ca2ac6",
}
# The markdown and json-lines forms of the same reports; the csv form is
# pinned above.
STATS_FORMAT_PINS = {
    ("correlations", "markdown"):
        "ad7aef3bc7477506383a685f874cb5e70addf8d19e452ae1c88b13947922ee0e",
    ("regression", "markdown"):
        "9e8c4d553ab5ba6595c90c7d71ab2bbd6d9cfffe6d268656e5b37829bbf0c63e",
    ("quadratic", "markdown"):
        "94c5e181ed38e4ebea732c41d16bdb9fd57fc14e9a5886b732d32286ae818325",
    ("mediation", "markdown"):
        "c6744b914416bdf619d33c6bf056608f435e00d48fda4167b6f17700b5b1ab39",
    ("groups", "markdown"):
        "4f26182840cfb9e1b8176ea11ec37b99aa5140328f1d3a2d9169f8cb9c82248d",
    ("timeless-anova", "markdown"):
        "fe454b0eb9cf93d1f897f44a29a5ee455cee9eedebf1300341b1c0542cb0c741",
    ("correlations", "json-lines"):
        "b09145768aea8e2bcf6172aefdecc69ea8024d090ea0a161ec32e9e82de25344",
    ("regression", "json-lines"):
        "3f344dee05614c698335a8b8d424e11cbb60d3a202e5e935aa8e908a9ae97af5",
    ("quadratic", "json-lines"):
        "51ba7f40bc59931bbf4b2906ac57bb8c80b3cd0f52858645cec85e032ce099b2",
    ("mediation", "json-lines"):
        "5a6c56b4462c1e59c8ac61ca0f849b1cfbff5ddc272cb7dbb790b410bb7d1bfa",
    ("groups", "json-lines"):
        "9116268cacb377ec643fc9abd05746e5289dfd0a93a9f939da6a7c5d3a4b8062",
    ("timeless-anova", "json-lines"):
        "ce9b9d0151a5233e94976b4e75c4bb54642251f396bd55087088680e2be77310",
}
SERIES_FORMAT_PINS = {
    ("sed", "markdown"):
        "55619e1e6e7862b901144d573e0c95049a6bc782e0c744775aedb8fd5a6e3400",
    ("sms", "markdown"):
        "1139527ef0b4e7549d6fe7d7ca0f7581d9d62b14de85a14d13298ffae0dc4b6f",
    ("spa_rolling", "markdown"):
        "d96659b84fd43aba5a161411fb014e3b88b18df5d73d3b10f9a306d9391f1ca7",
    ("inter_role_distance", "markdown"):
        "b151c82104854b05f9501f3f658870da62d82b911e15710acd6f88a700dfcc18",
    ("sed", "json-lines"):
        "7c59060b646499063943abd3967cf311b616aae490163485c5fef07546b79b1d",
    ("sms", "json-lines"):
        "e7ada988afa0c828bba4c8b81d8bfcec22980e709e1faf4005e4285af641f94d",
    ("spa_rolling", "json-lines"):
        "8b8307a871c4edcc4c10aa68101f6a4825e04d2019f5485a3032d11cafe22ba5",
    ("inter_role_distance", "json-lines"):
        "d92205824a9d582da713f10373419822321f01420a86767d0efc5c3d5bed101c",
}
REPLAY_PINS = {
    "replay_a.jsonl":
        "9450ef0dbdf110516bae327250c2b0047194f9b73248670244f6aa892bd8c0e8",
    "replay_a.manifest.json":
        "01ea3c157ed6989baba55b02c7fdd9e76901a062f1d0bee3c80af7985d7a1b0c",
}

# No border walls: doors, rubble and victims sit on the outer rows and columns.
EDGE_ART = """\
g..D..y..r
....#.....
D.S.#..*.y
....D.....
r.........
....#..g..
y.*.g..D.g
"""
EDGE_SEEDS = (0, 1, 2, 3)
EDGE_PINS = {
    "random_walk-fov1":
        "d9335ffaa1b72aa281afca38e565892f1a861fce030f81a9c90dc07740eea342",
    "random_walk-fov2":
        "d9335ffaa1b72aa281afca38e565892f1a861fce030f81a9c90dc07740eea342",
    "random_walk-fov5":
        "d9335ffaa1b72aa281afca38e565892f1a861fce030f81a9c90dc07740eea342",
    "greedy-fov1":
        "a614d7938d733e91237d4541db9dfc41cd47f8c70b06d933186872b3b9dbfcc7",
    "greedy-fov2":
        "e7498f8ad74a3e355ebae059f83a8aa85aa213fe2375085f0ed275f889c5eec0",
    "greedy-fov5":
        "69f69fbb4db6e8b572a2493fec6aa0fd89920b51092c1e0d9d5f464dec2f106c",
    "coordinated-fov1":
        "4d1710396b347461eed7557da62105bfc0e6fd11dc9ffd48bb3228cd17ce7313",
    "coordinated-fov2":
        "d8e33cc5fb6b56f781cf2d73a5e032a42424d2fc9b81b7b87770cb2d28559312",
    "coordinated-fov5":
        "bd2d17029f71f26aab1f26abc26f1cf655eb1627252564e95edaa3c4e8d6c1c9",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, argv) -> bytes:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out.encode("utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for name in MAPS:
        for kind in POLICIES:
            assert main(["simulate", "--map", name, "--policies", kind, "--runs", str(len(SEEDS)),
                         "--seed", str(SEEDS[0]), "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def table(corpus):
    path = corpus / "metrics.csv"
    assert main(["metrics", *map(str, sorted(corpus.glob("*.jsonl"))),
                 "--out", str(path)]) == EXIT_OK
    return path


def test_session_files(corpus, capsys):
    capsys.readouterr()
    got = {p.name: sha(p.read_bytes()) for p in sorted(corpus.glob("*.json*"))}
    assert len(got) == 2 * len(MAPS) * len(POLICIES) * len(SEEDS)
    assert got == SESSION_PINS


def test_metrics_table(corpus, table, capsys):
    capsys.readouterr()
    stdout = run_cli(capsys, ["metrics", *map(str, sorted(corpus.glob("*.jsonl")))])
    assert stdout == table.read_bytes()
    assert sha(stdout) == TABLE_PIN, sha(stdout)


@pytest.mark.parametrize("analysis", ["correlations", "regression", "quadratic", "mediation",
                                      "groups", "timeless-anova"])
def test_stats_reports(table, analysis, capsys):
    capsys.readouterr()
    out = run_cli(capsys, ["stats", "--table", str(table), "--analysis", analysis,
                           "--seed", "0", "--resamples", "500"])
    assert sha(out) == STATS_PINS[analysis], sha(out)


@pytest.mark.parametrize("metric", [m.value for m in SeriesMetric])
def test_timeseries(corpus, metric, capsys):
    capsys.readouterr()
    out = run_cli(capsys, ["timeseries", *map(str, sorted(corpus.glob("*.jsonl"))),
                           "--metric", metric])
    assert sha(out) == SERIES_PINS[metric], sha(out)


@pytest.mark.parametrize("fmt", ["markdown", "json-lines"])
@pytest.mark.parametrize("analysis", ["correlations", "regression", "quadratic", "mediation",
                                      "groups", "timeless-anova"])
def test_stats_report_formats(table, analysis, fmt, capsys):
    capsys.readouterr()
    out = run_cli(capsys, ["stats", "--table", str(table), "--analysis", analysis,
                           "--seed", "0", "--resamples", "500", "--format", fmt])
    assert sha(out) == STATS_FORMAT_PINS[analysis, fmt], sha(out)


@pytest.mark.parametrize("fmt", ["markdown", "json-lines"])
@pytest.mark.parametrize("metric", [m.value for m in SeriesMetric])
def test_timeseries_formats(corpus, metric, fmt, capsys):
    capsys.readouterr()
    out = run_cli(capsys, ["timeseries", *map(str, sorted(corpus.glob("*.jsonl"))),
                           "--metric", metric, "--format", fmt])
    assert sha(out) == SERIES_FORMAT_PINS[metric, fmt], sha(out)


# A table whose sms column is constant: every correlation with sms, its own
# included, is undefined.
CONSTANT_SMS_TABLE = """\
session_id,sed,sms,spa,ci,performance
t1,0.1,0.5,0.2,0.3,10
t2,0.2,0.5,0.4,0.1,30
t3,0.3,0.5,0.1,0.4,20
t4,0.4,0.5,0.3,0.2,40
"""
CONSTANT_SMS_PINS = {
    "csv": "c3e9110b33a5dc8081eb88a1cdb94d8bec2e9f80410d1188585702a4bf344e30",
    "markdown": "6d23d94e91d7a63ca48cbeb382c01391ebc15778156a2d7ba439a2e0a1929ca1",
    "json-lines": "87801905559dd73b5530a22e18dc53a7e77b0c88b984d79e074af89490e63842",
}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fmt", ["csv", "markdown", "json-lines"])
def test_undefined_correlations(tmp_path, fmt, capsys):
    """An undefined statistic is an empty cell in csv and markdown, null in json-lines."""
    path = tmp_path / "constant.csv"
    path.write_text(CONSTANT_SMS_TABLE)
    out = run_cli(capsys, ["stats", "--table", str(path), "--analysis", "correlations",
                           "--format", fmt])
    text = out.decode()
    assert "nan" not in text.lower()
    if fmt == "json-lines":
        rows = [json.loads(line, parse_constant=_no_constant) for line in text.splitlines()]
        others = ("sed", "spa", "ci", "performance")
        undefined = [(r["var_a"], r["var_b"]) for r in rows if r["rho"] is None]
        assert sorted(undefined) == sorted([(v, "sms") for v in others]
                                           + [("sms", v) for v in others] + [("sms", "sms")])
        assert all((r["rho"] is None) == (r["p_value"] is None) for r in rows)
    assert sha(out) == CONSTANT_SMS_PINS[fmt], sha(out)


# A table on which both infinite F statistics arise: performance is 10 * sms exactly, and
# neither the sed nor the sms groups have any spread in it.
NO_SPREAD_TABLE = """\
session_id,sed,sms,spa,ci,performance
t1,0.1,1,0.7,0.3,10
t2,0.2,1,0.2,0.1,10
t3,0.3,2,0.5,0.4,20
t4,0.4,2,0.1,0.2,20
t5,0.5,2,0.8,0.6,20
t6,0.6,2,0.3,0.5,20
t7,0.7,3,0.6,0.8,30
t8,0.8,3,0.4,0.7,30
"""


@pytest.mark.parametrize("analysis, key, infinite", [
    ("timeless-anova", "metric", {"sed", "sms"}),
    ("regression", "response", {"performance"}),
])
def test_infinite_f_statistics_are_json(tmp_path, analysis, key, infinite, capsys):
    """An infinite F is the string "inf" in json-lines, as it is inf in csv; no bare Infinity."""
    path = tmp_path / "no_spread.csv"
    path.write_text(NO_SPREAD_TABLE)
    out = run_cli(capsys, ["stats", "--table", str(path), "--analysis", analysis,
                           "--format", "json-lines"]).decode()
    rows = [json.loads(line, parse_constant=_no_constant) for line in out.splitlines()]
    assert {r[key] for r in rows if r["f_stat"] == "inf"} == infinite
    assert all(r["f_stat"] == "inf" or math.isfinite(r["f_stat"]) for r in rows)
    csv_out = run_cli(capsys, ["stats", "--table", str(path), "--analysis", analysis]).decode()
    assert csv_out.count(",inf,") == sum(r["f_stat"] == "inf" for r in rows)


def test_committed_replay(tmp_path):
    spec = builtin_map("medium")
    policy = AgentPolicy(PolicyKind.COORDINATED)
    team = [(Role.MEDIC, policy), (Role.MEDIC, policy),
            (Role.ENGINEER, policy), (Role.ENGINEER, policy)]
    session = run_mission(spec, team, seed=7, session_id="replay")
    fresh = write_session(session, tmp_path / "replay_a.jsonl")
    for path in fresh:
        committed = (REPLAY_DIR / path.name).read_bytes()
        assert committed == path.read_bytes()
        assert sha(committed) == REPLAY_PINS[path.name], sha(committed)


@pytest.mark.parametrize("fov_radius", [1, 2, 5])
@pytest.mark.parametrize("kind", POLICIES)
def test_edge_of_grid_sessions(tmp_path, kind, fov_radius):
    spec = map_from_ascii("edge", EDGE_ART, fov_radius=fov_radius)
    policy = AgentPolicy(PolicyKind(kind), params={"dither": 0.2})
    team = [(Role.MEDIC, policy), (Role.MEDIC, policy),
            (Role.ENGINEER, policy), (Role.ENGINEER, policy)]
    digest = hashlib.sha256()
    for seed in EDGE_SEEDS:
        session = run_mission(spec, team, seed=seed)
        for path in write_session(session, tmp_path / f"{kind}-{seed}.jsonl"):
            digest.update(path.read_bytes())
    assert digest.hexdigest() == EDGE_PINS[f"{kind}-fov{fov_radius}"], digest.hexdigest()

# Mixed teams and non-default planner parameters, on every built-in map at
# seed 0: each pin hashes the session log and manifest of one mission.
MIXED_TEAMS = {
    "mixed4": (("medic", "coordinated"), ("medic", "greedy"),
               ("engineer", "greedy"), ("engineer", "random_walk")),
    "coordmedics": (("medic", "coordinated"), ("medic", "coordinated"),
                    ("engineer", "greedy"), ("engineer", "greedy")),
}
PLANNER_PARAMS = {"dither": 0, "patience": 0, "park_signal_ticks": 0}
TEAM_PINS = {
    "small-coordmedics":
        "dfe105e647778d6787edcc2e56882edccb0ad0bb9112481f1723711d96c5f3fb",
    "small-mixed4":
        "569efa675cbfdacae4448e6a04bef2a95eec2c078050ea832551d0f631b19f59",
    "small-greedy-params":
        "f2e32bbaebdbc0d50317230077e3c18d9145fbb6b32cc7306d2c73127d2760d0",
    "small-coordinated-params":
        "7b26161c3329951ebb678288f6835c744102e3eeab3f5b033ffd132a3b385c21",
    "medium-coordmedics":
        "ad56a31719a69f940d2f695b03d554bbd1727bcdf1d132e75c30e61620f391a4",
    "medium-mixed4":
        "508a35b23a3dc1502fec655c24265b1762f42782a95b7920ea6b63f60f210c9f",
    "medium-greedy-params":
        "3ca99d176bdfdae1e47c7441670533a6f85835419ba9b7d406938364efc81451",
    "medium-coordinated-params":
        "eaeb1adbebf445a6019a92f92c9f6af937c22cfd5fbaf56e1ed25609ff581114",
    "corridor-coordmedics":
        "de866e8a2908ed36dac3608751aa041208ef469bf0ed4f84d35d47e1899b7820",
    "corridor-mixed4":
        "e06e86948874348c686403777662a222ac02b3dc5cb7d29fa451f3a9b53221f2",
    "corridor-greedy-params":
        "e725aea4e38f4c96296a06706098822dafc67b98f42796c8da08143ef3f44e57",
    "corridor-coordinated-params":
        "1d9c574c3e7b62ad852e1b4ce47a928241f83f25bff260b8d625815336f83727",
}


def _team_digest(tmp_path, spec, team) -> str:
    session = run_mission(spec, team, seed=0)
    digest = hashlib.sha256()
    for path in write_session(session, tmp_path / "team.jsonl"):
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mapname", MAPS)
@pytest.mark.parametrize("team", sorted(MIXED_TEAMS))
def test_mixed_team_sessions(tmp_path, mapname, team):
    slots = [(Role(role), AgentPolicy(PolicyKind(kind))) for role, kind in MIXED_TEAMS[team]]
    got = _team_digest(tmp_path, builtin_map(mapname), slots)
    assert got == TEAM_PINS[f"{mapname}-{team}"], got


@pytest.mark.parametrize("mapname", MAPS)
@pytest.mark.parametrize("kind", ["greedy", "coordinated"])
def test_planner_params_sessions(tmp_path, mapname, kind):
    policy = AgentPolicy(PolicyKind(kind), params=PLANNER_PARAMS)
    slots = [(Role.MEDIC, policy), (Role.MEDIC, policy),
             (Role.ENGINEER, policy), (Role.ENGINEER, policy)]
    got = _team_digest(tmp_path, builtin_map(mapname), slots)
    assert got == TEAM_PINS[f"{mapname}-{kind}-params"], got


# Requested actions, as each controller asked for them before the step rules
# resolved them: three maps x three policies at seeds 0 and 1, the mixed team
# on each map at seed 0, and random walkers on EDGE_ART (no border walls, so
# some moves aim off the grid). A row is (tick, agent, kind, target), the
# target as (x, y), "off-grid" or None.
ACTION_STREAM_PINS = {
    "small-random_walk":
        "bd34e7a43d91517ea4e976453c6d1c42c18602409e7197b8cc060b9858854af9",
    "small-greedy":
        "f4d68c8bf32c3417d7a172d6f2f4af0187c69319d3ae7360846c15b5b551098d",
    "small-coordinated":
        "9dd6700e5e8222c10fafd00e724ce65d10993527ec1c0ee9a583b1d2d5cfd872",
    "small-mixed4":
        "1125cd9d0dbda741a308ec97de9c8b97a0559b80db8f1bf972eeafe08c9fd067",
    "medium-random_walk":
        "a233ff675413b8bca480382599829fb95237901df24c3f38c97a6e879f8cd5ad",
    "medium-greedy":
        "d0db868357c5e4008bf190702b0c00e866669f551818d0f30b115ba0473ae196",
    "medium-coordinated":
        "1041bfc2c359da7c0c7c5bc046b69da2eb61b187c74670075868e5cf3e980a2c",
    "medium-mixed4":
        "6f4ecc7481c72723a444ebd6b94f539bc7fa7abaac2e6eba2db712a55aec2bcd",
    "corridor-random_walk":
        "fca2de0fc987885fa77d56ea44d3c7e38704afc7b6d42711013ef0091b19d00d",
    "corridor-greedy":
        "f310941dc494235ab51919f319f0a432f9338e0e7f7c0241ba09b67f20212f32",
    "corridor-coordinated":
        "943febcdf5f203999f0b0d772d99c1fb7aab83563ca8ff8985f940213d626274",
    "corridor-mixed4":
        "5d5df64ad59d6978819688faa9d4adb44a8f9f32271d7695f4711cb89fce2d6e",
    "edge-random_walk":
        "1e9ddc1f3def3ffe0ebd9ebe64c4da619150b8e83827b94563dd927cfc6c7380",
}


def _target_key(grid, act):
    """A requested target as (x, y); a move off the grid has no target cell."""
    if act.target is None:
        return "off-grid" if act.kind is ActionTag.MOVE else None
    y, x = divmod(act.target, grid.width)
    return (x, y)


def test_requested_action_streams(monkeypatch):
    step = policies.step_resolved
    rows = []

    def recording_step(state, actions):
        grid = state.spec.grid
        rows.extend((state.tick, i, act.kind.value, _target_key(grid, act))
                    for i, act in enumerate(actions))
        return step(state, actions)

    monkeypatch.setattr(policies, "step_resolved", recording_step)
    missions = {}
    for mapname in MAPS:
        spec = builtin_map(mapname)
        for kind in POLICIES:
            policy = AgentPolicy(PolicyKind(kind))
            team = [(Role.MEDIC, policy), (Role.MEDIC, policy),
                    (Role.ENGINEER, policy), (Role.ENGINEER, policy)]
            missions[f"{mapname}-{kind}"] = [(spec, team, seed) for seed in (0, 1)]
        mixed = [(Role(role), AgentPolicy(PolicyKind(kind))) for role, kind in MIXED_TEAMS["mixed4"]]
        missions[f"{mapname}-mixed4"] = [(spec, mixed, 0)]
    walker = AgentPolicy(PolicyKind.RANDOM_WALK)
    edge_team = [(Role.MEDIC, walker), (Role.MEDIC, walker),
                 (Role.ENGINEER, walker), (Role.ENGINEER, walker)]
    missions["edge-random_walk"] = [(map_from_ascii("edge", EDGE_ART), edge_team, s) for s in (0, 1)]

    got = {}
    for name, runs in missions.items():
        rows.clear()
        for spec, team, seed in runs:
            run_mission(spec, team, seed=seed)
        if name == "edge-random_walk":
            assert any(row[3] == "off-grid" for row in rows)
        got[name] = sha(repr(rows).encode())
    assert got == ACTION_STREAM_PINS, got
