"""The benchmark's traced run checks that each learner layer of ``dqn.train``
is called through the attribute it wraps (perfbench/spans.py).  This test
counts those calls over a short training run, so that a step which stops
reaching one of them fails here and not only in a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402

from ringflow import DdqnConfig, EpsilonSchedule, MlpSpec, dqn  # noqa: E402

from test_dqn import ToyMdp  # noqa: E402


def test_every_learning_step_calls_each_traced_learner_layer_once():
    steps, learn_from = 120, 40
    config = DdqnConfig(episodes=50, total_train_steps=steps,
                        min_buffer_before_learning=learn_from,
                        replay_capacity=200,
                        epsilon=EpsilonSchedule(0.5, 0.5), seed=0)
    tracer = Tracer()
    tracer.mark()
    tracer.install()
    try:
        dqn.train(ToyMdp(), config, spec=MlpSpec(1, (8,), 3))
    finally:
        tracer.uninstall()
    calls = tracer.phase_calls(0)
    learning_steps = steps - learn_from + 1
    for name in ("dqn.ReplayBuffer.sample", "dqn.ddqn_targets",
                 "net.loss_and_gradients", "net.adam_step"):
        assert calls[name] == learning_steps, name
    # the acting forward of a greedy step goes through forward_batch too
    assert 0 < calls["net.forward"] < steps
    assert calls["net.forward_batch"] - calls["net.forward"] == learning_steps
    assert calls["dqn.select_action"] == calls["net.forward"]
