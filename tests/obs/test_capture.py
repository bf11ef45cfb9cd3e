"""Per-cell capture/replay: serializability, fidelity."""

import json

from repro.bench.profile import SelfProfile
from repro.mpi.job import MpiJob
from repro.obs.capture import CaptureConfig, CellCapture, CellMetrics, replay_payload
from repro.obs.metrics import MetricsRegistry
from repro.sim.session import SimSession
from repro.sim.trace import NULL_TRACER, RecordingTracer


def _run_once(session):
    def program(ctx):
        yield from ctx.alltoall(16 << 10)

    MpiJob(8, session=session).run(program)


def _capture_once(config):
    cap = CellCapture(config)
    _run_once(cap.session())
    return cap.seal()


class TestCaptureConfig:
    def test_falsy_when_everything_off(self):
        assert not CaptureConfig()
        assert CaptureConfig(trace=True)
        assert CaptureConfig(metrics=True)
        assert CaptureConfig(profile=True)

    def test_round_trip(self):
        cfg = CaptureConfig(trace=True, profile=True)
        assert CaptureConfig.from_dict(cfg.to_dict()) == cfg


class TestCaptureCell:
    def test_captures_records_and_metrics(self):
        payload = _capture_once(CaptureConfig(trace=True, metrics=True))
        assert payload["records"], "trace records must be captured"
        assert all({"t", "type"} <= set(r) for r in payload["records"])
        assert payload["metrics"]["counters"]["net.flows_started"] > 0
        assert payload["profile"] is None
        json.dumps(payload)  # plain data end to end

    def test_captures_profile_samples(self):
        payload = _capture_once(CaptureConfig(profile=True))
        assert payload["records"] is None
        samples = payload["profile"]
        assert len(samples) == 1
        assert samples[0]["n_ranks"] == 8
        assert samples[0]["events_processed"] > 0

    def test_cell_metrics_round_trip(self):
        cm = CellMetrics(records=[{"t": 0.0, "type": "mark", "name": "x"}],
                         metrics={"counters": {"a": 1}},
                         profile=None)
        assert CellMetrics.from_dict(cm.to_dict()) == cm


class TestReplay:
    def test_replay_none_is_noop(self):
        replay_payload(None)
        replay_payload({})

    def test_replay_records_into_ambient_tracer(self):
        tracer = RecordingTracer()
        payload = {"records": [
            {"t": 0.5, "type": "mark", "name": "x", "extra": 1},
            {"t": 1.0, "type": "flow.start", "flow": "f", "bytes": 2,
             "links": [], "seq": 0},
        ]}
        replay_payload(payload, tracer=tracer)
        assert len(tracer.records) == 2
        assert tracer.records[0].t == 0.5
        assert tracer.records[0].data == {"name": "x", "extra": 1}
        assert tracer.records[1].type == "flow.start"

    def test_replay_skips_disabled_tracer(self):
        replay_payload({"records": [{"t": 0.0, "type": "mark", "name": "x"}]},
                       tracer=NULL_TRACER)

    def test_replay_metrics_into_ambient_registry(self):
        reg = MetricsRegistry()
        payload = {"metrics": {"counters": {"c": 2.0}, "gauges": {"g": 1.0},
                               "series": {}}}
        replay_payload(payload, metrics=reg)
        assert reg.snapshot()["counters"]["c"] == 2.0

    def test_replay_profile_into_active_profiles(self):
        payload = {"profile": [{
            "n_ranks": 4, "sim_time_s": 1.0, "wall_time_s": 0.5,
            "events_processed": 10, "rerate_calls": 1, "flows_rerated": 2,
        }]}
        prof = SelfProfile()
        replay_payload(payload, profile=prof)
        assert len(prof.samples) == 1
        assert prof.samples[0].n_ranks == 4

    def test_capture_then_replay_equals_direct_observation(self):
        # The whole point: capture+replay reproduces what a direct run
        # into the tracer would have recorded.
        direct = RecordingTracer()
        _run_once(SimSession(tracer=direct))

        replayed = RecordingTracer()
        replay_payload(_capture_once(CaptureConfig(trace=True)), replayed)

        assert len(direct.records) == len(replayed.records)
        assert [(r.t, r.type, r.data) for r in direct.records] == \
               [(r.t, r.type, r.data) for r in replayed.records]
