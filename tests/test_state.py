"""The Metropolis-Hastings finish every kernel's step ends in."""

import numpy as np
import pytest

from hughop.state import ChainState, all_finite, finish_step, log_acceptance, metropolis_accept


def _state() -> ChainState:
    return ChainState(position=np.array([0.1, -0.2]), logp=-0.025, grad=np.array([-0.1, 0.2]))


@pytest.mark.parametrize(
    "log_ratio, log_alpha",
    [(None, -np.inf), (np.nan, -np.inf), (np.inf, -np.inf), (-np.inf, -np.inf),
     (-1.5, -1.5), (0.0, 0.0), (2.0, 0.0)],
)
def test_log_acceptance_caps_at_zero_and_rejects_what_is_not_finite(log_ratio, log_alpha):
    assert log_acceptance(log_ratio) == log_alpha


def test_metropolis_accept_alone_accepts_plus_inf():
    assert metropolis_accept(np.random.default_rng(0), np.inf)


@pytest.mark.parametrize("log_ratio", [None, np.nan, np.inf, -np.inf, -0.7, 3.0])
def test_finish_draws_exactly_one_uniform(log_ratio):
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    finish_step(rng, _state(), log_ratio, np.array([1.0, 1.0]), logp=-1.0)
    twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_plus_inf_ratio_rejects():
    state = _state()
    new_state, outcome = finish_step(
        np.random.default_rng(0), state, np.inf, np.array([1.0, 1.0]), logp=np.inf
    )
    assert new_state is state
    assert not outcome.accepted
    assert outcome.log_alpha == -np.inf


@pytest.mark.parametrize("logp", [np.nan, np.inf, -np.inf])
def test_non_finite_logp_rejects(logp):
    state = _state()
    new_state, outcome = finish_step(
        np.random.default_rng(0), state, 0.0, np.array([1.0, 1.0]), logp=logp
    )
    assert new_state is state
    assert not outcome.accepted


def test_accepted_state_carries_proposal_logp_and_grad():
    proposal, grad = np.array([1.0, 1.0]), np.array([-1.0, -1.0])
    new_state, outcome = finish_step(
        np.random.default_rng(0), _state(), 0.5, proposal, logp=-1.0, grad=grad,
        energy_error=0.5,
    )
    assert outcome.accepted
    assert outcome.alpha == 1.0
    assert outcome.proposal is proposal
    assert outcome.extras == {"energy_error": 0.5}
    assert new_state.position is proposal
    assert new_state.logp == -1.0
    assert new_state.grad is grad


@pytest.mark.parametrize(
    "a",
    [
        [0.5, -2.0, 3.0],
        [0.5, np.nan, 3.0],
        [np.inf, 1.0],
        [1.0, -np.inf],
        [np.inf, -np.inf, 0.0],
        [1e200, -1e200, 1.0],  # finite, but a . a overflows
        [],
    ],
    ids=["finite", "nan", "plus-inf", "minus-inf", "both-infs", "overflowing-squares", "empty"],
)
def test_all_finite_matches_the_entrywise_test(a):
    a = np.array(a, dtype=float)
    with np.errstate(over="ignore"):  # as the kernels call it
        assert all_finite(a) is bool(np.isfinite(a).all())
