"""The library's records: immutable, built with fresh containers, and checked when built."""

import copy
import pickle

import numpy as np
import pytest

from hvlab.contextuality import jauch_piron_contradiction, ks_color, orthogonality_structure, peres_rays
from hvlab.ensembles import basis_observables, oracle_from_density
from hvlab.hvmodels import BellHVState
from hvlab.kernels import hardy_build, mermin_square, mermin_verify, optimal_chsh_settings
from hvlab.simlab import ConfigError, ExperimentConfig, sign_strategy, simulate_chsh

KET0 = np.array([1.0, 0.0], dtype=complex)


def records():
    """One of each record type, built as the library builds it."""
    structure = orthogonality_structure(peres_rays())
    config = ExperimentConfig(optimal_chsh_settings(), 100, 1.0, 0)
    return [
        oracle_from_density(np.eye(2) / 2.0),
        basis_observables(2),
        jauch_piron_contradiction((0, 0, 1), (1, 0, 0)),
        BellHVState(KET0, 0.1),
        structure,
        ks_color(structure),
        mermin_verify(mermin_square()),
        optimal_chsh_settings(),
        hardy_build(0.5, 0.5),
        config,
        sign_strategy(),
        simulate_chsh(config),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_assignment_raises_attribute_error(record):
    # the fields, the properties built from them (the Hardy vectors, the CHSH directions) and a name of neither
    properties = [name for name, value in vars(type(record)).items() if isinstance(value, property)]
    for name in (*record._fields, *properties, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_basis_observables_share_no_container():
    first, second = basis_observables(2), basis_observables(2)
    for name in ("u", "v", "w"):
        assert getattr(first, name) is not getattr(second, name)
    first.u.clear()
    assert second.count() == 4


CONFIG_ARGS = {"n_pairs": 100, "visibility": 1.0, "seed": 0, "source": "singlet"}


@pytest.mark.parametrize(
    "key, value",
    [("n_pairs", 7), ("visibility", 1.5), ("seed", -1), ("source", "telepathy"), ("source", "lhv:nope")],
)
@pytest.mark.parametrize("keywords", [False, True], ids=["positional", "keyword"])
def test_experiment_config_checks_every_field(key, value, keywords):
    args = {"settings": optimal_chsh_settings(), **CONFIG_ARGS, key: value}
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**args) if keywords else ExperimentConfig(*args.values())
    assert info.value.key == key


def test_experiment_config_default_source():
    assert ExperimentConfig(optimal_chsh_settings(), 100, 1.0, 0).source == "singlet"


@pytest.mark.parametrize(
    "psi, lam, message",
    [(KET0, 0.6, "outside"), (KET0, -0.6, "outside"), (np.ones(3) / np.sqrt(3.0), 0.0, "single spin-1/2"),
     (2.0 * KET0, 0.0, "normalized")],
)
@pytest.mark.parametrize("keywords", [False, True], ids=["positional", "keyword"])
def test_bell_hv_state_checks_its_input(psi, lam, message, keywords):
    with pytest.raises(ValueError, match=message):
        BellHVState(psi=psi, lam=lam) if keywords else BellHVState(psi, lam)


def test_bell_hv_state_keeps_the_validated_state():
    state = BellHVState(psi=[1, 0], lam=0.5)
    assert state.psi.dtype == complex and state.psi.tolist() == [1, 0] and state.lam == 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExperimentConfig(optimal_chsh_settings(), 100, 1.0, 0)._replace(seed=-1, n_pairs=3),
        lambda: ExperimentConfig._make([optimal_chsh_settings(), 100, 1.5, 0, "singlet"]),
        lambda: optimal_chsh_settings()._replace(floats=((2.0, 0.0, 0.0),) * 4),
        lambda: type(optimal_chsh_settings())._make([((0.0, 0.0, 0.0),) * 4]),
        lambda: BellHVState(KET0, 0.1)._replace(lam=9.0),
        lambda: BellHVState._make([np.array([2, 0]), 9.0]),
    ],
    ids=["config-replace", "config-make", "settings-replace", "settings-make", "state-replace", "state-make"],
)
def test_replace_and_make_check_like_the_constructor(build):
    with pytest.raises(ValueError):
        build()


def test_replace_and_make_keep_valid_records():
    config = ExperimentConfig(optimal_chsh_settings(), 100, 1.0, 0)
    assert config._replace(seed=5) == ExperimentConfig(optimal_chsh_settings(), 100, 1.0, 5)
    assert ExperimentConfig._make(config) == config
    settings = optimal_chsh_settings()
    assert type(settings)._make(settings) == settings and settings._replace() == settings
    state = BellHVState(KET0, 0.1)._replace(lam=-0.5)
    assert type(state) is BellHVState and state.lam == -0.5


def test_copies_rebuild_a_config():
    config = ExperimentConfig(optimal_chsh_settings(), 100, 0.5, 3, source="singlet")
    for clone in (copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
        assert clone == config and type(clone.settings) is type(config.settings)
