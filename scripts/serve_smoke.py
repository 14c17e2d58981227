#!/usr/bin/env python3
"""CI smoke client for `gaps serve`.

Connects to a running daemon, exercises one of every protocol verb
(PING, REQ, a malformed frame, STATS, a full SESSION
begin/arrive/step/end online session, DRAIN), asserts the STATS v4
counters — including the `search.*` branch-and-bound rows — reflect
what was sent, and exits 0 only if the daemon answered everything and
acknowledged the drain. Usage:

    serve_smoke.py HOST PORT
"""

import socket
import sys
import time


def main() -> None:
    host, port = sys.argv[1], int(sys.argv[2])
    sock = socket.create_connection((host, port), timeout=30)
    stream = sock.makefile("rw", newline="\n")

    def send(line: str) -> None:
        stream.write(line + "\n")
        stream.flush()

    def recv() -> str:
        line = stream.readline()
        assert line, "daemon closed the connection"
        return line.rstrip("\n")

    send("PING")
    assert recv() == "PONG"

    send("REQ a instance v1;processors 1;job 0 1")
    res = recv()
    assert res.startswith("RES a one n=1 gaps="), res

    # Malformed input is answered, never fatal.
    send("FROB")
    err = recv()
    assert err.startswith("ERR - unknown verb"), err

    # The same instance again: must be a cache hit, same body.
    send("REQ b instance v1;processors 1;job 0 1")
    res_b = recv()
    assert res_b == "RES b" + res[len("RES a"):], (res, res_b)

    # Let the --report-interval ticker fire at least once (the caller
    # greps the daemon's stderr for its line) and uptime_s reach 1.
    time.sleep(1.5)

    def recv_stats() -> dict:
        send("STATS")
        assert recv() == "STATS v4"
        rows = {}
        while True:
            line = recv()
            if line == "STATS end":
                return rows
            _, key, value = line.split(" ", 2)
            rows[key] = value

    rows = recv_stats()
    assert rows["requests"] == "2", rows
    assert rows["cache_hits"] == "1", rows
    assert rows["cache_misses"] == "1", rows
    assert rows["protocol_errors"] == "1", rows
    assert rows["in_flight"] == "0", rows
    assert int(rows["pool_workers"]) >= 1, rows
    assert int(rows["uptime_s"]) >= 1, rows
    # Search rows exist from the first snapshot (zero until a
    # multi-exact branch-and-bound actually runs).
    for key in (
        "search.nodes_expanded",
        "search.components_le_1",
        "search.components_le_64",
    ):
        assert key in rows, (key, rows)

    # A multi-interval instance whose span optimum (2) beats every lower
    # bound (single-run union): the branch-and-bound must actually open,
    # so the search counters move.
    send(
        "REQ c multi v1;job 0 1;job 0 1;job 8 9;job 8 9;job 2 3 4 5 6 7"
    )
    res_c = recv()
    assert res_c.startswith("RES c multi n=5 gaps="), res_c
    assert "solver=multi_exact" in res_c, res_c
    rows = recv_stats()
    assert int(rows["search.nodes_expanded"]) > 0, rows
    components = sum(
        int(v) for k, v in rows.items() if k.startswith("search.components_le_")
    )
    assert components > 0, rows

    # One full online session end to end. The replies are pinned byte
    # for byte: they must match `gaps batch --replay-online` for the
    # same arrivals.
    send("SESSION begin timeout 2")
    assert recv() == "SESSION begun policy=timeout alpha=2"
    send("SESSION arrive 0")
    assert recv() == "SESSION t=1 state=awake online=3"
    send("SESSION arrive 5")
    assert recv() == "SESSION t=6 state=awake online=8"
    send("SESSION end")
    end = recv()
    assert end == (
        "SESSION end policy=timeout alpha=2 jobs=2 online=8 offline=6 ratio=1.3333"
    ), end

    # Out-of-order SESSION verbs are answered, never fatal.
    send("SESSION arrive 9")
    err = recv()
    assert err.startswith("ERR - no SESSION active"), err

    rows = recv_stats()
    # The SESSION end offline solve is a real engine request.
    assert rows["requests"] == "4", rows
    assert rows["protocol_errors"] == "2", rows
    assert rows["policy.timeout.sessions"] == "1", rows
    assert rows["policy.timeout.ratio_mean"] == "1.3333", rows
    assert rows["policy.timeout.ratio_max"] == "1.3333", rows

    send("DRAIN")
    assert recv() == "DRAINING"
    print("serve smoke OK:", " ".join(f"{k}={v}" for k, v in sorted(rows.items())))


if __name__ == "__main__":
    main()
