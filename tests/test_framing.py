"""The CRC-framed line format shared by the campaign journal and the
job journal (:mod:`repro.core.framing`).

One literal line per format is pinned byte for byte, written through
each log's own writer: a change to a pinned line is a format change.
The campaign journal is at version 2 since its program digest covers
the whole boot image; version-1 journals are refused with a version
message rather than resumed under a digest that meant something else.
"""

import os

from repro.core.faults import RegZap
from repro.core.framing import frame, read_frames, rewrite, unframe
from repro.injection.campaign import FaultResult
from repro.injection.journal import CampaignJournal
from repro.service.store import JobStore

CAMPAIGN_HEADER = (
    '{"crc":"e841c4cf","d":{"config":"fedcba9876543210",'
    '"magic":"talft-campaign-journal","program":"0123456789abcdef",'
    '"version":2}}\n')
CAMPAIGN_STEP = (
    '{"crc":"fe7509f5","d":{"out":[[["R","r1",7],"masked","=",2]],'
    '"step":3}}\n')
JOB_HEADER = (
    '{"crc":"3747e16b","d":{"magic":"talft-job-journal","version":1}}\n')
JOB_SNAPSHOT = (
    '{"crc":"bd12d685","d":{"event":"job","job":{"id":"job-1",'
    '"status":"queued"}}}\n')


def _lines(path):
    with open(path) as handle:
        return handle.readlines()


class TestPinnedFrames:
    def test_campaign_journal_lines(self, tmp_path):
        path = str(tmp_path / "c.journal")
        tail = ((100, 5),)
        with CampaignJournal.fresh(path, "0123456789abcdef",
                                   "fedcba9876543210") as journal:
            journal.append_step(3, [(RegZap("r1", 7), FaultResult.MASKED,
                                     tail, 2)], tail)
            journal.append_raw(3, [[["R", "r1", 7], "masked", "=", 2]])
        assert _lines(path) == [CAMPAIGN_HEADER, CAMPAIGN_STEP,
                                CAMPAIGN_STEP]

    def test_job_journal_lines(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.open()
        store.record_submit({"id": "job-1", "status": "queued"})
        store.close()
        assert _lines(store.path) == [JOB_HEADER, JOB_SNAPSHOT]
        # The compacting rewrite on open keeps the same bytes.
        JobStore(str(tmp_path)).open()
        assert _lines(store.path) == [JOB_HEADER, JOB_SNAPSHOT]


class TestFraming:
    def test_round_trip_and_checksum(self):
        line = frame({"b": [1, 2], "a": "x"})
        assert unframe(line) == {"a": "x", "b": [1, 2]}
        assert unframe(line.replace("1,2", "1,3")) is None  # bit rot
        assert unframe(line[:-9]) is None  # torn write
        assert unframe("\n") is None

    def test_reader_counts_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "log")
        with open(path, "w") as handle:
            handle.write(frame(1) + "garbage\n\n" + frame([2]) +
                         frame(3)[:7])
        assert read_frames(path) == ([1, [2]], 2)
        assert read_frames(str(tmp_path / "missing")) == ([], 0)

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "log")
        with open(path, "w") as handle:
            handle.write("torn")
        rewrite(path, [{"k": 1}, [2]])
        assert _lines(path) == [frame({"k": 1}), frame([2])]
        assert not os.path.exists(path + ".tmp")
