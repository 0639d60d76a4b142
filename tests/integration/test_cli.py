"""CLI integration tests (in-process via cli.main, plus ``serve`` as a
subprocess for its signal handling)."""

import io
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.index_shm import shared_memory_available
from repro.relational import Relation, write_csv
from repro.service import ServiceClient, SqliteSessionStore

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_arguments(self):
        args = build_parser().parse_args(
            ["infer", "a.csv", "b.csv", "--strategy", "L1S"]
        )
        assert args.strategy == "L1S"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])


class TestGenerate:
    def test_tpch(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "tpch",
                "--scale",
                "0.5",
                "--out-dir",
                str(tmp_path),
            ]
        ) == 0
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert "part.csv" in written and "lineitem.csv" in written
        assert "wrote" in capsys.readouterr().out

    def test_synthetic(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "synthetic",
                "--config",
                "(2,3,8,5)",
                "--out-dir",
                str(tmp_path),
            ]
        ) == 0
        assert (tmp_path / "R.csv").exists()
        assert (tmp_path / "P.csv").exists()

    def test_bad_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    "synthetic",
                    "--config",
                    "nonsense",
                    "--out-dir",
                    str(tmp_path),
                ]
            )


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Flight" in out
        assert "questions" in out


class TestInfer:
    def _write_tables(self, tmp_path):
        left = Relation.build(
            "Products",
            ["sku", "cat"],
            [(1, 10), (2, 20)],
        )
        right = Relation.build(
            "Categories",
            ["code", "tax"],
            [(10, 1), (20, 2)],
        )
        left_path = tmp_path / "products.csv"
        right_path = tmp_path / "categories.csv"
        write_csv(left, left_path)
        write_csv(right, right_path)
        return left_path, right_path

    def test_infer_with_scripted_stdin(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        # Answer "yes" when sku/cat matches code positionally, else "no";
        # just feed a deterministic script long enough for any strategy.
        answers = io.StringIO("\n".join(["n"] * 30) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--strategy",
                "BU",
                "--infer-types",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Inferred join predicate" in out

    def test_infer_saves_transcript(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        answers = io.StringIO("\n".join(["n"] * 30) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        transcript = tmp_path / "session.json"
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--strategy",
                "BU",
                "--infer-types",
                "--save-transcript",
                str(transcript),
            ]
        ) == 0
        from repro.core import loads
        from repro.core.session import InferenceResult

        restored = loads(transcript.read_text())
        assert isinstance(restored, InferenceResult)
        assert restored.interactions == len(restored.history)

    def test_infer_max_questions(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        answers = io.StringIO("\n".join(["y"] * 5) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--max-questions",
                "1",
                "--infer-types",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "(1 questions asked)" in out


class TestExperimentCommand:
    def test_table1_smoke(self, capsys, monkeypatch):
        """Patch the heavy harness functions for a fast smoke run."""
        import repro.cli as cli_module
        from repro.core import strategy_by_name
        from repro.data import SyntheticConfig

        def fake_experiment(args):
            from repro.experiments import (
                figure7,
                render_figure7,
            )

            cells = figure7(
                configs=(SyntheticConfig(2, 2, 8, 5),),
                goal_sizes=(0,),
                runs=1,
                strategies=[strategy_by_name("BU")],
                seed=0,
            )
            print(render_figure7(cells))
            return 0

        monkeypatch.setattr(cli_module, "_cmd_experiment", fake_experiment)
        assert main(["experiment", "table1"]) == 0
        assert "interactions" in capsys.readouterr().out


def _shm_segments() -> set[str]:
    directory = "/dev/shm"
    if not os.path.isdir(directory):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir(directory) if name.startswith("repro_")}


class TestServeShutdown:
    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        """SIGTERM on a single-process ``serve`` runs the same shutdown
        as Ctrl-C: exit status 0, the answer journaled in the store, and
        the shared index segment unlinked."""
        store_path = tmp_path / "sessions.db"
        before = _shm_segments()
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--store", str(store_path), "--shared-index",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            assert ready, "serve never reported its address"
            banner = server.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port) as client:
                info = client.create_session(
                    workload="tpch/join2", strategy="L1S", seed=3
                )
                session_id = info["session_id"]
                question = client.next_question(session_id)
                client.post_answer(session_id, question["question_id"], "-")
            if shared_memory_available():
                assert _shm_segments() - before, "no index segment published"
            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, output
        store = SqliteSessionStore(str(store_path))
        try:
            stored = store.load(session_id)
        finally:
            store.close()
        assert stored is not None
        assert len(stored.payload["labeled"]) == 1
        assert _shm_segments() - before == set()
