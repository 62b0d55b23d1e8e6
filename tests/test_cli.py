"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_pattern, parse_policy, parse_topology
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology import Dragonfly


class TestParsers:
    def test_parse_topology(self):
        t = parse_topology("2,4,2,9")
        assert (t.p, t.a, t.h, t.g) == (2, 4, 2, 9)

    def test_parse_topology_bad(self):
        with pytest.raises(SystemExit):
            parse_topology("2,4")

    def test_parse_patterns(self):
        t = Dragonfly(2, 4, 2, 9)
        assert parse_pattern(t, "ur").describe() == "UR"
        assert parse_pattern(t, "shift:2,1").describe() == "shift(2,1)"
        assert parse_pattern(t, "shift:3").describe() == "shift(3,0)"
        assert "permutation" in parse_pattern(t, "perm:7").describe()
        assert "MIXED(25,75" in parse_pattern(t, "mixed:25,75").describe()
        assert "TMIXED(50,50" in parse_pattern(t, "tmixed:50,50").describe()

    def test_parse_pattern_bad(self):
        t = Dragonfly(2, 4, 2, 9)
        with pytest.raises(SystemExit):
            parse_pattern(t, "hotspot")
        with pytest.raises(SystemExit):
            parse_pattern(t, "mixed:banana")

    def test_parse_policies(self):
        assert isinstance(parse_policy(None), AllVlbPolicy)
        assert isinstance(parse_policy("all"), AllVlbPolicy)
        pol = parse_policy("hopclass:4,0.6")
        assert isinstance(pol, HopClassPolicy)
        assert pol.full_hops == 4 and pol.extra_fraction == 0.6
        st = parse_policy("strategic:3+2")
        assert isinstance(st, StrategicFiveHopPolicy)
        assert st.order == "3+2"

    def test_parse_policy_bad(self):
        with pytest.raises(SystemExit):
            parse_policy("zigzag")
        with pytest.raises(SystemExit):
            parse_policy("hopclass")

    def test_parse_policy_from_file(self, tmp_path):
        from repro.routing.serialization import save_policy

        path = tmp_path / "pol.json"
        save_policy(StrategicFiveHopPolicy("3+2"), str(path))
        pol = parse_policy(f"@{path}")
        assert isinstance(pol, StrategicFiveHopPolicy)
        assert pol.order == "3+2"


class TestCommands:
    def test_topo(self, capsys):
        assert main(["topo", "-t", "2,4,2,9"]) == 0
        out = capsys.readouterr().out
        assert "dfly(p=2, a=4, h=2, g=9)" in out
        assert "num_global_links: 36" in out

    def test_paths(self, capsys):
        assert main(["paths", "-t", "2,4,2,9", "0", "20"]) == 0
        out = capsys.readouterr().out
        assert "MIN paths (1):" in out
        assert "VLB paths" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "-t", "4,8,4,9"]) == 0
        out = capsys.readouterr().out
        assert "0.5625" in out

    def test_model(self, capsys):
        assert main(
            ["model", "-t", "2,4,2,3", "--pattern", "shift:1",
             "--policy", "hopclass:4"]
        ) == 0
        out = capsys.readouterr().out
        assert "modeled throughput" in out

    def test_sim(self, capsys):
        assert main(
            ["sim", "-t", "2,4,2,9", "--pattern", "ur", "--load", "0.1",
             "--window", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "saturated     : False" in out

    def test_sim_t_variant(self, capsys):
        assert main(
            ["sim", "-t", "2,4,2,3", "--pattern", "shift:1",
             "--routing", "t-ugal-l", "--policy", "strategic:2+3",
             "--load", "0.1", "--window", "100"]
        ) == 0
        assert "T-UGAL" not in capsys.readouterr().err

    def test_sweep_has_no_batch_flag(self, capsys):
        """Batching is the planner's decision: --batch is an argparse
        error, not a silently ignored option."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "-t", "2,4,2,5", "--batch", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err

    def test_figure_table(self, capsys):
        assert main(["figure", "table2"]) == 0
        out = capsys.readouterr().out
        assert "9126" in out

    def test_figure_unknown(self):
        with pytest.raises(ValueError):
            main(["figure", "fig99"])


class TestVerifyCommand:
    def test_paper_topology_certifies(self, capsys):
        assert main(["verify", "-t", "4,8,4,9", "--no-lint"]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free: certified" in out
        assert "RESULT: PASS" in out

    def test_none_scheme_reports_cycle_nonzero(self, capsys):
        assert main(
            ["verify", "-t", "4,8,4,9", "--vc-scheme", "none", "--no-lint"]
        ) == 1
        out = capsys.readouterr().out
        assert "DEADLOCK RISK" in out
        assert "dependency cycle (each waits on the next)" in out
        assert "RESULT: FAIL" in out

    def test_tvlb_policy_certifies(self, capsys):
        assert main(
            ["verify", "-t", "2,4,2,5", "--policy", "hopclass:4,0.2",
             "--routing", "t-par"]
        ) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main(["verify", "-t", "2,4,2,5", "--json", "--pairs", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["cdg"]["certified"] is True

    def test_rules_subset(self, capsys):
        assert main(
            ["verify", "-t", "2,4,2,5", "--no-cdg", "--rules",
             "vc-overflow,hop-validity", "--pairs", "10"]
        ) == 0
        assert "lint: 0 error(s)" in capsys.readouterr().out

    def test_unknown_rule_exits(self):
        with pytest.raises(SystemExit, match="unknown lint rule"):
            main(["verify", "-t", "2,4,2,5", "--no-cdg", "--rules", "bogus"])
