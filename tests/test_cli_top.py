"""The `repro top` CLI: parsing, file/sweep sources, determinism.

The live-poll loop is covered end to end by the CI dashboard-smoke
job; here we pin the offline sources (`--stats`/`--history` files and
`--sweep` streams), the `--once` byte-determinism contract, and the
error paths.
"""

import json

from repro.cli import build_parser, main
from repro.obs.timeseries import history_point, write_history_jsonl


def stats_payload():
    return {
        "uptime": 3.0,
        "fingerprint": "0123456789abcdef",
        "queue_depth": 0,
        "inflight": 0,
        "accounting": {
            "offered": 5, "admitted": 4, "rejected": 1, "shed": 0,
            "downgraded": 0, "conserves": True,
        },
        "breaker": {"rung": 0, "ceiling": "strict", "open": False,
                    "transitions": 0},
        "health": {"state": "live", "pressure": 0.1},
    }


def write_stats(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(stats_payload()))
    return path


def write_history(tmp_path):
    path = tmp_path / "history.jsonl"
    write_history_jsonl(
        [
            history_point(0.0, "sample",
                          series={"serve.offered": 0}, uptime=0.0),
            history_point(1.0, "sample",
                          series={"serve.offered": 5}, uptime=1.0),
        ],
        path,
    )
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.host == "127.0.0.1"
        assert args.port == 8181
        assert args.once is False
        assert args.interval == 1.0

    def test_sources_parse(self):
        args = build_parser().parse_args(
            ["top", "--stats", "s.json", "--history", "h.jsonl",
             "--once"]
        )
        assert args.stats == "s.json" and args.once is True
        args = build_parser().parse_args(["top", "--sweep", "name"])
        assert args.sweep == "name"


class TestFileMode:
    def test_renders_stats_and_history(self, tmp_path, capsys):
        stats = write_stats(tmp_path)
        history = write_history(tmp_path)
        assert main(
            ["top", "--stats", str(stats), "--history", str(history),
             "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "offered 5 = admitted 4 + rejected 1 + shed 0" in out
        assert "history 2 samples" in out

    def test_once_is_byte_deterministic(self, tmp_path, capsys):
        stats = write_stats(tmp_path)
        history = write_history(tmp_path)
        argv = ["top", "--stats", str(stats), "--history", str(history),
                "--once"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "\x1b" not in first  # no escape codes in --once mode

    def test_stats_only(self, tmp_path, capsys):
        stats = write_stats(tmp_path)
        assert main(["top", "--stats", str(stats), "--once"]) == 0
        assert "repro top — serve" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(
            ["top", "--history", str(tmp_path / "nope.jsonl"), "--once"]
        )
        assert rc == 2
        assert "top:" in capsys.readouterr().err


class TestSweepMode:
    def test_renders_progress_stream_by_path(self, tmp_path, capsys):
        path = tmp_path / "demo.progress.jsonl"
        write_history_jsonl(
            [
                history_point(
                    0.0, "sweep.begin",
                    series={"total": 4, "served": 1, "pending": 3,
                            "workers": 2},
                    sweep="demo",
                ),
                history_point(
                    2.0, "sweep.progress",
                    series={"done": 3, "executed": 2, "served": 1,
                            "pending": 1, "total": 4, "workers": 2,
                            "throughput": 1.0, "eta_seconds": 1.0},
                    sweep="demo",
                ),
            ],
            path,
        )
        assert main(["top", "--sweep", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — sweep  demo" in out
        assert "served-from-store 1  executed 2  pending 1" in out
        assert "began with 1 stored / 3 to run" in out

    def test_unknown_sweep_name_exits_2(self, tmp_path, capsys):
        rc = main(
            ["top", "--sweep", "ghost", "--store-dir",
             str(tmp_path / "store"), "--once"]
        )
        assert rc == 2
        assert "no sweep progress stream" in capsys.readouterr().err


class TestLiveMode:
    def test_unreachable_server_exits_2(self, capsys):
        # Port 1 on localhost is essentially never listening.
        rc = main(["top", "--port", "1", "--once"])
        assert rc == 2
        assert "top:" in capsys.readouterr().err
