"""``python -m repro cluster ...`` end to end, as real subprocesses.

This pins the acceptance flow of cluster service mode: ``up`` spawns one
OS process per node (distinct pids in ``status``), a socket client
completes CRDT commands against them, and SIGTERM brings ``up`` down with
exit code 0.
"""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def repro_cli(*args, timeout=60, **kwargs):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        **kwargs,
    )


class TestClusterCli:
    # ``group``: the SIGTERM goes to the whole process group (a shell's
    # Ctrl-C, a CI runner's cancel), so the nodes drain on their own while
    # ``up`` is still watching them; that drain is not a node death.
    @pytest.mark.parametrize("group", [False, True], ids=["up-only", "process-group"])
    def test_up_status_client_sigterm_down(self, tmp_path, group):
        state = str(tmp_path / "state")
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        up = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "up", "--nodes", "3", "--state", state],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=group,
        )
        try:
            status = repro_cli(
                "cluster", "status", "--state", state, "--wait-ready", "--timeout", "40",
                timeout=60,
            )
            assert status.returncode == 0, status.stdout + status.stderr
            assert "3 distinct OS pid(s)" in status.stdout, status.stdout

            client = repro_cli(
                "cluster", "client", "--state", state, "--commands", "12", "--clients", "2",
                timeout=90,
            )
            assert client.returncode == 0, client.stdout + client.stderr
            assert "12/12 completed" in client.stdout, client.stdout
            assert "audit: ok" in client.stdout, client.stdout

            output = ""
            if group:
                # Signal only once ``up`` itself reports the cluster up.
                for line in up.stdout:
                    output += line
                    if line.startswith("cluster up ("):
                        break
                os.killpg(up.pid, signal.SIGTERM)
            else:
                up.send_signal(signal.SIGTERM)
            code = up.wait(timeout=30)
            output += up.stdout.read()
            assert code == 0, output
            assert "cluster stopped (clean)" in output, output
            assert "exited with code" not in output, output
        finally:
            if up.poll() is None:
                up.kill()
                up.wait()

    def test_up_rejects_bad_membership(self, tmp_path):
        result = repro_cli(
            "cluster", "up", "--nodes", "3", "--f", "1",
            "--state", str(tmp_path / "state"), timeout=60,
        )
        assert result.returncode == 1
        assert "n >= 3f + 1" in result.stderr

    def test_status_without_a_cluster_is_loud(self, tmp_path):
        result = repro_cli("cluster", "status", "--state", str(tmp_path / "nope"), timeout=60)
        assert result.returncode == 1
        assert "no cluster state" in result.stderr

    def test_node_subcommand_rejects_unknown_name(self, tmp_path):
        spec_py = (
            "from repro.cluster.spec import localhost_spec; "
            f"localhost_spec(3).save({str(tmp_path / 'spec.json')!r})"
        )
        # Build the spec with a plain python -c (repro_cli prepends -m repro).
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", spec_py], check=True, env=env, timeout=60)
        result = repro_cli(
            "cluster", "node", "--spec", str(tmp_path / "spec.json"), "--name", "ghost",
            timeout=60,
        )
        assert result.returncode == 1
        assert "unknown node 'ghost'" in result.stderr
