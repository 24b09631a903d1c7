"""Every ``repro`` subcommand, driven once through ``cli.main`` with its
exit code asserted; the ``client`` subcommands talk to an in-process
``ServiceServer`` on port 0.

The CLI is the operator's tool: ``info``, ``serve``, ``client``,
``verify`` and ``policy``.  Walkthroughs are scripts under ``examples/``
(``tests/integration/test_examples_smoke.py`` runs them).  One command
is left out here: ``serve`` blocks until it is interrupted.
The usage listing is checked against this file, so a new subcommand
arrives with its test."""

import re

import pytest

from repro import cli
from repro.access.principals import Role, User
from repro.cluster import CuratorCluster
from repro.core.config import CuratorConfig
from repro.service import CuratorService, ServiceConfig, ServiceServer

LEFT_OUT = {"serve"}

COMMANDS = {
    "info": ["info"],
    "verify": ["verify", "--skip-sweep", "--skip-conformance", "--skip-equivalence"],
    "policy": [
        "policy", "explain", "dr-a", "read_record", "pat-1/rec-9",
        "--treating", "pat-1", "--patient", "pat-1",
    ],
}

CLIENT_COMMANDS = {
    "login", "healthz", "store", "read", "audit-query", "verify", "break-glass",
}


def subcommands(capsys, *prefix: str) -> set[str]:
    """The subcommands ``repro <prefix> --help`` lists."""
    with pytest.raises(SystemExit):
        cli.main([*prefix, "--help"])
    usage = capsys.readouterr().out
    return set(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))


def test_every_subcommand_but_serve_is_driven_here(capsys):
    assert subcommands(capsys) == {*COMMANDS, *LEFT_OUT, "client"}
    assert subcommands(capsys, "client") == CLIENT_COMMANDS


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_the_command_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


@pytest.fixture()
def served():
    """A running service with a physician and a privacy officer enrolled:
    ``(server, {user_id: secret})``."""
    cluster = CuratorCluster(
        CuratorConfig(master_key=bytes(range(32)), site_id="cli-test"), shards=2
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    users = (
        User.make("dr-cli", "Dr CLI", [Role.PHYSICIAN], "cardiology", treating={"pat-1"}),
        User.make("po-cli", "Privacy Officer", [Role.PRIVACY_OFFICER], "privacy"),
    )
    secrets = {user.user_id: service.enroll(user) for user in users}
    server = ServiceServer(service).start()
    try:
        yield server, secrets
    finally:
        server.stop()
        cluster.close()


def test_every_client_subcommand_over_the_wire(served, capsys):
    server, secrets = served

    def client(*argv: str) -> tuple[int, str]:
        status = cli.main(["client", "--port", str(server.port), *argv])
        return status, capsys.readouterr().out

    def login(user_id: str) -> str:
        status, out = client("login", "--user", user_id, "--secret", secrets[user_id].hex())
        assert status == 0
        return re.search(r"^token: (\S+)$", out, re.M).group(1)

    physician, officer = login("dr-cli"), login("po-cli")
    assert client("healthz")[0] == 0
    stored = client(
        "store", "--token", physician, "--record-id", "rec-1",
        "--patient-id", "pat-1", "--text", "sinus rhythm",
    )
    assert stored[0] == 0
    status, out = client("read", "--token", physician, "--record-id", "rec-1")
    assert status == 0 and "sinus rhythm" in out
    # physicians may not read the audit trail: a 403, exit 1
    assert client("audit-query", "--token", physician)[0] == 1
    assert client("audit-query", "--token", officer)[0] == 0
    assert client("verify", "--token", officer)[0] == 0
    assert client("verify", "--token", officer, "--incremental")[0] == 0
    granted = client(
        "break-glass", "--token", physician, "--patient-id", "pat-2",
        "--justification", "unconscious, no consent possible",
    )
    assert granted[0] == 0
