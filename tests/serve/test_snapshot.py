"""Crash-safe snapshot/restore: atomicity, round-trips, the reserve.

The daemon-level contract under test is the §5 guarantee surviving a
``kill -9``: a restored daemon must never re-issue a granted ticket,
never resurrect shed capacity, and refuse ledgers written under other
admission parameters.
"""

import json
import os

import pytest

from repro.control import (SNAPSHOT_VERSION, TICKET_RESERVE,
                           read_snapshot, write_snapshot)
from repro.errors import ConfigurationError
from repro.serve import ServeConfig, ServeDaemon


def make_daemon(tmp_path, **overrides):
    overrides.setdefault("disks", 2)
    overrides.setdefault("adaptive", True)
    overrides.setdefault("snapshot_path",
                         str(tmp_path / "serve.snapshot.json"))
    return ServeDaemon(ServeConfig(**overrides))


class TestFileFormat:
    def test_write_is_atomic_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "snap.json"
        written = write_snapshot(path, {"payload": 1})
        assert written == path
        document = json.loads(path.read_text())
        assert document["kind"] == "repro-serve-snapshot"
        assert document["version"] == SNAPSHOT_VERSION
        assert document["payload"] == 1
        leftovers = [p for p in os.listdir(tmp_path)
                     if p != "snap.json"]
        assert leftovers == []

    def test_read_validates_kind_version_and_json(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{ torn")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_snapshot(path)
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a repro"):
            read_snapshot(path)
        write_snapshot(path, {})
        document = json.loads(path.read_text())
        document["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="version"):
            read_snapshot(path)
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_snapshot(tmp_path / "absent.json")

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"config_fingerprint": "aaaa"})
        assert read_snapshot(path, "aaaa")["config_fingerprint"] == \
            "aaaa"
        with pytest.raises(ConfigurationError, match="different"):
            read_snapshot(path, "bbbb")

    def test_default_config_fingerprint_is_pinned(self):
        # The snapshot compatibility key hashes every attribute of the
        # disk spec and size law.  An attribute added to, renamed in or
        # cached on one of them silently changes the key, and every
        # snapshot written before is refused; this literal makes such
        # a change fail here first.  Update it only on purpose.
        assert ServeConfig().fingerprint() == \
            "b4d9e3e6f7aae68d67652ca37e8eb2a7c972c083"


class TestDaemonRoundTrip:
    def _exercise(self, daemon):
        """A representative mid-storm ledger: admits, a release, a
        failed disk (shedding), drift, and some probed rounds."""
        for _ in range(56):
            daemon.admit()
        daemon.release(3)
        daemon.fault("disk_fail", 0)
        daemon.fault("slow_disk", 1, factor=1.2)
        for _ in range(10):
            daemon.tick_round()

    def test_clean_restore_is_bit_for_bit(self, tmp_path):
        first = make_daemon(tmp_path)
        self._exercise(first)
        first.save_snapshot(clean=True)
        before = first.snapshot_payload(clean=True)

        second = make_daemon(tmp_path)
        after = second.snapshot_payload(clean=True)
        # written_at is the only legitimately differing field.
        before.pop("written_at"), after.pop("written_at")
        assert after == before
        assert second.state()["restored"] is True
        assert second.registry.snapshot()[
            "serve_snapshot_restored"]["value"] == 1
        # Ticket numbering resumes exactly where it stopped.
        with second._lock:
            assert second._next_stream == 56

    def test_unclean_restore_burns_the_ticket_reserve(self, tmp_path):
        first = make_daemon(tmp_path)
        self._exercise(first)
        first.save_snapshot(clean=False)
        granted = set(first.state()["streams"])

        second = make_daemon(tmp_path)
        assert second.registry.snapshot()[
            "serve_snapshot_restored"]["value"] == 2
        with second._lock:
            assert second._next_stream == 56 + TICKET_RESERVE
        # Zero duplicate admissions: every new ticket is beyond the
        # reserve, disjoint from anything granted before the crash.
        second.release()  # make room under the restored limits
        fresh = second.admit()["stream"]
        assert fresh >= 56 + TICKET_RESERVE
        assert fresh not in granted

    def test_restore_reimposes_shed_limits(self, tmp_path):
        first = make_daemon(tmp_path)
        self._exercise(first)
        active = first.controller.active
        first.save_snapshot(clean=True)

        second = make_daemon(tmp_path)
        assert second.controller.active == active
        assert second.controller.degraded
        assert second.state()["failed_disks"] == [0]
        assert second.state()["slow_disks"] == {"1": 1.2}
        # The degraded limit is back in force: no admission headroom
        # beyond what the pre-crash daemon had.
        assert second.controller.capacity == first.controller.capacity

    def test_restore_refuses_foreign_config(self, tmp_path):
        first = make_daemon(tmp_path)
        first.admit()
        first.save_snapshot(clean=True)
        with pytest.raises(ConfigurationError, match="different"):
            make_daemon(tmp_path, disks=4)

    def test_controller_trajectory_survives_restart(self, tmp_path):
        first = make_daemon(tmp_path, probe_seed=7)
        for _ in range(56):
            first.admit()
        for _ in range(40):
            first.tick_round()
        first.fault("slow_disk", 0, factor=1.25)
        first.fault("slow_disk", 1, factor=1.25)
        for _ in range(120):
            first.tick_round()
        assert first.registry.snapshot()[
            "serve_retunes_total"]["value"] >= 1
        first.save_snapshot(clean=True)

        second = make_daemon(tmp_path, probe_seed=7)
        ctl_before = first.control_state()["controller"]
        ctl_after = second.control_state()["controller"]
        for key in ("state", "n_max", "t_mult", "retunes",
                    "calibration", "watchdog_trips"):
            assert ctl_after[key] == ctl_before[key]
        # The restored loop keeps running from where it stopped.
        second.tick_round()
        assert second.control_state()["round_index"] == \
            first.control_state()["round_index"] + 1

    def test_faults_and_retunes_autosave(self, tmp_path):
        daemon = make_daemon(tmp_path)
        path = daemon.config.snapshot_path
        assert not os.path.exists(path)
        daemon.fault("slow_disk", 0, factor=1.5)
        assert os.path.exists(path)
        document = read_snapshot(path)
        assert document["clean"] is False
        assert document["ledger"]["slow"] == {"0": 1.5}

    def test_save_without_path_is_a_noop(self, tmp_path):
        daemon = make_daemon(tmp_path, snapshot_path=None)
        assert daemon.save_snapshot() is None
