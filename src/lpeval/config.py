"""Run configuration: a declarative key=value file plus flag overrides.

The effective configuration is validated before any computation and echoed
verbatim into every artifact. The validated value types it builds (windows,
predictor tags, sampling and slicing specs) live here too, with no numpy, so
that a command that needs no arrays loads none: the array modules import
these types from this module.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .errors import ConfigError

GENERATION_MODES = ("recommendation", "query")

Interval = tuple[int, int]

# Per-pair weight contributed by a k-clique event. A pair event (k=2) weighs
# exactly 1 under the default rule.
WEIGHT_RULES = {
    "1/(k-1)": lambda k: 1.0 / (k - 1),
    "1/k": lambda k: 1.0 / k,
    "1": lambda k: 1.0,
}


def _check_interval(interval, name="interval"):
    begin, end = interval
    if begin > end:
        raise ConfigError(f"empty interval [{begin}, {end}]", field=name)
    return int(begin), int(end)


@dataclass(frozen=True)
class WindowConfig:
    """Four-snapshot train/test windowing over the event timeline.

    Labels must come strictly after the features they label, and the test
    label window must lie strictly after every training window.
    """

    train_feature: Interval
    train_label: Interval
    test_feature: Interval
    test_label: Interval

    def __post_init__(self):
        for name in ("train_feature", "train_label", "test_feature", "test_label"):
            _check_interval(getattr(self, name), name)
        if self.train_label[0] <= self.train_feature[1]:
            raise ConfigError(
                "train_label must begin after train_feature ends", field="train_label"
            )
        if self.test_label[0] <= self.test_feature[1]:
            raise ConfigError(
                "test_label must begin after test_feature ends", field="test_label"
            )
        if self.test_label[0] <= max(self.train_feature[1], self.train_label[1]):
            raise ConfigError(
                "test_label must be disjoint from and later than all training windows",
                field="test_label",
            )


DIRECTION_POLICIES = ("mean", "max", "min", "list-both")

_ALIASES = {
    "cn": "common-neighbors",
    "aa": "adamic-adar",
    "pa": "preferential-attachment",
    "pf": "propflow",
}
_KINDS = ("common-neighbors", "adamic-adar", "preferential-attachment", "propflow")


@dataclass(frozen=True)
class PredictorId:
    """A predictor tag; propflow carries its hop bound ``l_max``."""

    kind: str
    l_max: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown predictor {self.kind!r}", field="predictors")
        if self.kind == "propflow":
            if self.l_max is None or self.l_max < 1:
                raise ConfigError("propflow needs l_max >= 1", field="predictors")
        elif self.l_max is not None:
            raise ConfigError(f"{self.kind} takes no l_max", field="predictors")

    @property
    def directional(self):
        return self.kind == "propflow"

    @property
    def name(self):
        if self.kind == "propflow":
            return f"propflow{self.l_max}"
        return self.kind

    @classmethod
    def parse(cls, text):
        """Parse ``"cn"``, ``"adamic-adar"``, ``"propflow:4"``, ``"pf:4"`` ..."""
        text = text.strip().lower()
        kind, _, arg = text.partition(":")
        kind = _ALIASES.get(kind, kind)
        if kind == "propflow":
            if not arg:
                raise ConfigError("propflow needs ':l_max' (e.g. propflow:4)",
                                  field="predictors")
            try:
                return cls(kind, int(arg))
            except ValueError:
                raise ConfigError(f"propflow l_max must be an integer, got {arg!r}",
                                  field="predictors") from None
        if arg:
            raise ConfigError(f"{kind} takes no argument", field="predictors")
        return cls(kind)


@dataclass(frozen=True)
class SamplingSpec:
    """How to thin the negative class of a test set.

    ``fair-random`` keeps every negative independently with probability
    ``rate`` (or exactly round(N * rate) of them under ``exact_counts``);
    positives are always kept. ``kaggle-balanced`` ignores ``rate`` and
    undersamples negatives per distance bucket to that bucket's positive
    count. ``none`` is the identity.
    """

    mode: str = "fair-random"
    rate: float | None = None
    seed: int = 0
    exact_counts: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "fair-random", "kaggle-balanced"):
            raise ConfigError(f"unknown sampling mode {self.mode!r}",
                              field="sampling.mode")
        if self.mode == "fair-random":
            if self.rate is None or not 0 < self.rate <= 1:
                raise ConfigError("fair-random needs a rate in (0, 1]",
                                  field="sampling.rate")
        elif self.rate is not None:
            raise ConfigError(f"{self.mode} takes no rate", field="sampling.rate")


@dataclass(frozen=True)
class TemporalSliceSpec:
    """Equal-duration slicing of the test-label interval."""

    slices: int
    mode: str = "disjoint"

    def __post_init__(self):
        if self.slices < 1:
            raise ConfigError("slices must be >= 1", field="temporal.slices")
        if self.mode not in ("disjoint", "cumulative"):
            raise ConfigError(f"unknown slice mode {self.mode!r}",
                              field="temporal.slice_mode")


# Full-problem / 2-hop sub-problem instance counts of the Condmat corpus,
# used as the documented stand-in when no corpus is available.
CONDMAT_STANDIN_COUNTS = {"p_sub": 1196, "n_sub": 214_616,
                          "p_full": 29_898, "n_full": 148_200_000}

_DEFAULTS = {
    "dataset": {"path": "", "format": "pair", "scores": "",
                "weight_rule": "1/(k-1)"},
    "windows": {"train_feature": "", "train_label": "", "test_feature": "",
                "test_label": ""},
    "prediction": {"predictors": "common-neighbors", "policy": "mean",
                   "mode": "recommendation", "lmax": "4",
                   "include_beyond": "true", "include_disconnected": "true"},
    "sampling": {"mode": "none", "rate": "", "exact_counts": "false"},
    "variance": {"rates": "1e-5,1e-4,1e-3,1e-2,1e-1,1", "repeats": "100"},
    "surrogate": {"alphas": "0.2,0.9", "betas": "10,50", "trials": "100000",
                  "p_sub": str(CONDMAT_STANDIN_COUNTS["p_sub"]),
                  "n_sub": str(CONDMAT_STANDIN_COUNTS["n_sub"]),
                  "p_full": str(CONDMAT_STANDIN_COUNTS["p_full"]),
                  "n_full": str(CONDMAT_STANDIN_COUNTS["n_full"]),
                  "scale": "1"},
    "kaggle": {"repeats": "10", "rate": "0.1"},
    "temporal": {"slices": "5", "slice_mode": "disjoint"},
    "run": {"seed": "0", "out": "out", "svg": "false"},
}


def _to_int(raw, path):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected integer, got {raw!r}", field=path) from None


def _to_positive_int(raw, path):
    value = _to_int(raw, path)
    if value < 1:
        raise ConfigError(f"must be >= 1, got {value}", field=path)
    return value


def _to_float(raw, path):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected number, got {raw!r}", field=path) from None


def _to_bool(raw, path):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected boolean, got {raw!r}", field=path)


def _to_interval(raw, path):
    begin, sep, end = raw.partition(":")
    if not sep:
        raise ConfigError(f"expected 'begin:end', got {raw!r}", field=path)
    return _to_int(begin, path), _to_int(end, path)


def _split_list(raw):
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


class RunConfig:
    """Validated, typed view of a configuration file."""

    def __init__(self, sections):
        self.sections = {name: dict(defaults) for name, defaults in _DEFAULTS.items()}
        for name, values in sections.items():
            if name not in self.sections:
                raise ConfigError(f"unknown section [{name}]", field=name)
            for key, value in values.items():
                if key not in self.sections[name]:
                    raise ConfigError("unknown key", field=f"{name}.{key}")
                self.sections[name][key] = str(value)
        self._validate()

    @classmethod
    def from_file(cls, path, overrides=()):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(str(exc), field="config") from None
        except configparser.Error as exc:
            raise ConfigError(str(exc), field="config") from None
        sections = {name: dict(parser[name]) for name in parser.sections()}
        return cls._apply_overrides(sections, overrides)

    @classmethod
    def from_overrides(cls, overrides=()):
        return cls._apply_overrides({}, overrides)

    @classmethod
    def _apply_overrides(cls, sections, overrides):
        for item in overrides:
            key, sep, value = item.partition("=")
            section, dot, name = key.strip().partition(".")
            if not sep or not dot:
                raise ConfigError(f"override must be section.key=value, got {item!r}",
                                  field="--set")
            sections.setdefault(section, {})[name.strip()] = value.strip()
        return cls(sections)

    def _validate(self):
        s = self.sections
        self.dataset_path = s["dataset"]["path"] or None
        self.dataset_format = s["dataset"]["format"]
        if self.dataset_format not in ("pair", "clique"):
            raise ConfigError(f"unknown format {self.dataset_format!r}",
                              field="dataset.format")
        self.scores_path = s["dataset"]["scores"] or None
        self.weight_rule = s["dataset"]["weight_rule"]
        if self.weight_rule not in WEIGHT_RULES:
            raise ConfigError(f"unknown weight rule {self.weight_rule!r}",
                              field="dataset.weight_rule")

        raw_windows = {k: v for k, v in s["windows"].items() if v}
        self.windows = None
        if raw_windows:
            missing = set(_DEFAULTS["windows"]) - set(raw_windows)
            if missing:
                raise ConfigError(f"missing window(s): {sorted(missing)}",
                                  field="windows")
            self.windows = WindowConfig(
                **{k: _to_interval(v, f"windows.{k}") for k, v in raw_windows.items()})

        self.predictors = [PredictorId.parse(tok)
                           for tok in _split_list(s["prediction"]["predictors"])]
        if not self.predictors:
            raise ConfigError("need at least one predictor",
                              field="prediction.predictors")
        self.policy = s["prediction"]["policy"]
        if self.policy not in DIRECTION_POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}",
                              field="prediction.policy")
        self.mode = s["prediction"]["mode"]
        if self.mode not in GENERATION_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}", field="prediction.mode")
        self.lmax = _to_int(s["prediction"]["lmax"], "prediction.lmax")
        if self.lmax < 2:
            raise ConfigError("lmax must be >= 2", field="prediction.lmax")
        self.include_beyond = _to_bool(s["prediction"]["include_beyond"],
                                       "prediction.include_beyond")
        self.include_disconnected = _to_bool(s["prediction"]["include_disconnected"],
                                             "prediction.include_disconnected")

        self.seed = _to_int(s["run"]["seed"], "run.seed")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", field="run.seed")
        raw_rate = s["sampling"]["rate"]
        self.sampling = SamplingSpec(
            s["sampling"]["mode"],
            _to_float(raw_rate, "sampling.rate") if raw_rate else None, self.seed,
            _to_bool(s["sampling"]["exact_counts"], "sampling.exact_counts"))

        self.variance_rates = [_to_float(tok, "variance.rates")
                               for tok in _split_list(s["variance"]["rates"])]
        if not self.variance_rates:
            raise ConfigError("need at least one rate", field="variance.rates")
        for p in self.variance_rates:
            if not 0 < p <= 1:
                raise ConfigError(f"rate {p} outside (0, 1]", field="variance.rates")
        self.variance_repeats = _to_positive_int(s["variance"]["repeats"],
                                                 "variance.repeats")

        self.surrogate_alphas = [_to_float(t, "surrogate.alphas")
                                 for t in _split_list(s["surrogate"]["alphas"])]
        self.surrogate_betas = [_to_float(t, "surrogate.betas")
                                for t in _split_list(s["surrogate"]["betas"])]
        self.surrogate_trials = _to_int(s["surrogate"]["trials"], "surrogate.trials")
        scale = _to_float(s["surrogate"]["scale"], "surrogate.scale")
        if scale < 1:
            raise ConfigError("scale must be >= 1", field="surrogate.scale")
        counts = {k: _to_int(s["surrogate"][k], f"surrogate.{k}")
                  for k in ("p_sub", "n_sub", "p_full", "n_full")}
        self.surrogate_counts = {k: max(1, round(v / scale))
                                 for k, v in counts.items()}
        self.surrogate_scale = scale

        self.kaggle_repeats = _to_positive_int(s["kaggle"]["repeats"],
                                               "kaggle.repeats")
        self.kaggle_rate = _to_float(s["kaggle"]["rate"], "kaggle.rate")
        if not 0 < self.kaggle_rate <= 1:
            raise ConfigError("rate must be in (0, 1]", field="kaggle.rate")

        self.temporal = TemporalSliceSpec(
            _to_int(s["temporal"]["slices"], "temporal.slices"),
            s["temporal"]["slice_mode"])

        self.out_dir = s["run"]["out"]
        self.svg = _to_bool(s["run"]["svg"], "run.svg")

    def require_dataset(self):
        if self.dataset_path is None:
            raise ConfigError("this command needs a dataset path", field="dataset.path")

    def require_windows(self):
        if self.windows is None:
            raise ConfigError("this command needs the [windows] section",
                              field="windows")

    def echo(self):
        """Config as written, defaults filled in."""
        return {name: dict(values) for name, values in self.sections.items()}
