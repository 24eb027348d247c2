"""Dataset loading, class counting, and deterministic synthetic corpora.

The original DGA / email / URL feeds are time-window collections that cannot
be redistributed, so this module ships (a) a plain CSV reader for anyone who
has real data, (b) manifest constants with the published train/test class
counts for weight-arithmetic checks, and (c) seeded generators that produce
disjoint, reproducible stand-in corpora for every use case.

Split disjointness is structural: every candidate string is assigned to the
train or test universe by the parity of its crc32, so two generator calls can
never emit the same text for different splits, whatever their seeds or sizes.
"""

from __future__ import annotations

import csv
import random
import zlib
from dataclasses import dataclass

from .errors import ConfigError, DataError, ParseError

#: published class counts [legitimate, malicious/spam] of the original feeds
SOURCE_CORPUS_COUNTS = {
    "dga": {"train": (38276, 53052), "test": (12753, 17690)},
    "email": {"train": (19337, 24665), "test": (8153, 10706)},
    "url": {"train": (23374, 11116), "test": (1142, 578)},
}

USE_CASES = ("dga", "email", "url")
SPLITS = ("train", "test")

# fmt: off
WORDLIST = (
    "able", "acid", "acorn", "actor", "adult", "after", "agent", "alarm",
    "album", "alert", "alley", "alpha", "amber", "angel", "angle", "ankle",
    "apple", "apron", "arbor", "arch", "arena", "argon", "armor", "arrow",
    "aspen", "asset", "atlas", "atom", "audio", "autumn", "avenue", "awake",
    "bacon", "badge", "bagel", "baker", "bamboo", "banjo", "barn", "basil",
    "basin", "beach", "beacon", "bean", "beard", "beaver", "berry", "bingo",
    "birch", "bison", "blade", "blaze", "bloom", "bluff", "board", "bolt",
    "bonus", "book", "booth", "bottle", "bough", "brain", "brass", "bread",
    "breeze", "brick", "bridge", "brook", "broom", "bucket", "buddy", "bugle",
    "bunny", "burrow", "butter", "cabin", "cable", "cactus", "camel", "candle",
    "canoe", "canyon", "carbon", "cargo", "carrot", "castle", "cedar", "cello",
    "chain", "chalk", "charm", "chess", "chief", "chili", "choir", "cider",
    "cinema", "circle", "citrus", "claw", "cliff", "clock", "cloud", "clover",
    "cobalt", "cocoa", "comet", "compass", "copper", "coral", "corn", "cotton",
    "cougar", "cove", "crane", "crater", "cream", "creek", "cricket", "crown",
    "crystal", "cynic", "daisy", "dawn", "delta", "denim", "depot", "desert",
    "diary", "diesel", "dock", "dome", "donor", "dove", "dragon", "drift",
    "drum", "dune", "eagle", "earth", "echo", "eddy", "elbow", "elder",
    "ember", "emerald", "engine", "envoy", "epoch", "estate", "ether", "fable",
    "falcon", "fauna", "feather", "fennel", "fern", "ferry", "fiber", "field",
    "finch", "fjord", "flame", "flask", "fleet", "flint", "flora", "flute",
    "foam", "forest", "forge", "fossil", "fountain", "fox", "frost", "galaxy",
    "garden", "garlic", "gazebo", "gecko", "geyser", "ginger", "glacier", "glade",
    "globe", "gorge", "granite", "grape", "gravel", "grove", "guitar", "gulf",
    "hall", "hamlet", "harbor", "harvest", "hazel", "heron", "hickory", "hill",
    "hollow", "honey", "horizon", "hound", "hunter", "igloo", "indigo", "iris",
    "iron", "island", "ivory", "jade", "jaguar", "jasper", "jetty", "jungle",
    "juniper", "kayak", "kettle", "kiosk", "kiwi", "knoll", "lagoon", "lake",
    "lantern", "larch", "laser", "latch", "laurel", "lava", "ledge", "lemon",
    "lily", "linen", "lion", "lodge", "lotus", "lumen", "lunar", "lyric",
    "magnet", "mango", "manor", "maple", "marble", "marsh", "mason", "meadow",
    "melon", "mesa", "mint", "mirror", "mocha", "monarch", "moss", "motel",
    "mountain", "mule", "myrtle", "nectar", "noble", "north", "nugget", "nylon",
    "oasis", "ocean", "olive", "onyx", "opal", "orbit", "orchard", "osprey",
    "otter", "owl", "oxide", "palm", "panda", "pantry", "parade", "parcel",
    "pearl", "pebble", "pepper", "phoenix", "pier", "pine", "pistachio", "planet",
    "plaza", "plume", "pond", "poplar", "poppy", "portal", "prairie", "prism",
    "pueblo", "pulse", "quail", "quarry", "quartz", "quill", "rabbit", "raccoon",
    "rain", "ranch", "raven", "rebel", "reef", "ridge", "river", "robin",
    "rocket", "rose", "rover", "ruby", "rust", "saddle", "saffron", "sage",
    "salmon", "sand", "sapphire", "satin", "scout", "sedge", "senate", "sequoia",
    "shale", "shell", "shore", "silver", "sketch", "slate", "sleet", "smoke",
    "snow", "solar", "sonnet", "sparrow", "spice", "spring", "spruce", "squash",
    "stable", "star", "steam", "stone", "storm", "stream", "summit", "sunset",
    "swan", "syrup", "tango", "tavern", "tempest", "terrace", "thistle", "thunder",
    "tiger", "timber", "topaz", "torch", "trail", "treasure", "tulip", "tundra",
    "turbine", "turtle", "umber", "union", "valley", "vanilla", "vapor", "velvet",
    "verdant", "vessel", "vine", "violet", "vista", "wagon", "walnut", "water",
    "weather", "willow", "window", "winter", "wolf", "woodland", "wren", "yarn",
    "yellow", "yonder", "zephyr", "zinc",
)
# fmt: on

_TLDS = ("com", "net", "org", "info", "biz")
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"

# word pools for the email generator; both classes share the common pool but
# draw from their own pool with higher probability, so the classes overlap
# without being identical
_EMAIL_COMMON = WORDLIST[:160]
_EMAIL_LEGIT = WORDLIST[160:280]
_EMAIL_SPAM = (
    "offer", "free", "winner", "cash", "prize", "click", "urgent", "deal",
    "bonus", "credit", "loan", "cheap", "limited", "act", "now", "guarantee",
    "million", "lottery", "claim", "exclusive", "discount", "trial", "risk",
    "money", "rich", "instant", "approval", "unsecured", "refinance", "pharmacy",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthetic corpus.

    Length ranges are inclusive and per class; their unit depends on the use
    case: words per text for dga/email legitimate text and email spam,
    characters for dga/url malicious payloads, path words for url legitimate.
    ``None`` picks the use-case default.
    """

    use_case: str
    n_legit: int
    n_malicious: int
    seed: int
    split: str = "train"
    legit_range: tuple[int, int] | None = None
    malicious_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.use_case not in USE_CASES:
            raise ConfigError(f"unknown use case {self.use_case!r}")
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}")
        if self.n_legit < 1 or self.n_malicious < 1:
            raise ConfigError("class sizes must be >= 1")
        for which, bounds in (("legit", self.legit_range), ("malicious", self.malicious_range)):
            if bounds is not None and not 1 <= bounds[0] <= bounds[1]:
                raise ConfigError(
                    f"{which} range must be LO,HI with 1 <= LO <= HI, got {bounds[0]},{bounds[1]}"
                )


@dataclass
class LabeledDataset:
    texts: tuple[str, ...]
    labels: tuple[int, ...]
    use_case: str | None = None
    split: str | None = None

    def __post_init__(self):
        self.texts = tuple(self.texts)
        self.labels = tuple(int(l) for l in self.labels)
        if len(self.texts) != len(self.labels):
            raise DataError("texts and labels must have equal length")
        if any(l not in (0, 1) for l in self.labels):
            raise DataError("labels must be 0 or 1")
        if self.use_case is not None and self.use_case not in USE_CASES:
            raise DataError(f"unknown use case {self.use_case!r}")
        if self.split == "train" and len(set(self.labels)) < 2 and len(self.labels) > 0:
            raise DataError("train splits must contain both classes")

    def __len__(self) -> int:
        return len(self.texts)


def class_counts(dataset: LabeledDataset) -> list[int]:
    """Per-class sample counts in label order [legitimate, malicious]."""
    n1 = sum(dataset.labels)
    return [len(dataset.labels) - n1, n1]


def _split_bucket(text: str) -> str:
    return SPLITS[zlib.crc32(text.encode("utf-8")) & 1]


def _lcg_chars(state: int, n: int) -> str:
    """DGA-style keyed character stream from a linear congruential generator."""
    out = []
    for _ in range(n):
        state = (1103515245 * state + 12345) % 2**31
        out.append(_ALNUM[(state >> 16) % len(_ALNUM)])
    return "".join(out)


def _gen_dga(cfg: GeneratorConfig, rng: random.Random, label: int) -> str:
    if label == 0:
        lo, hi = cfg.legit_range or (2, 3)
        words = rng.randint(lo, hi)
        name = "".join(rng.choice(WORDLIST) for _ in range(words))
    else:
        lo, hi = cfg.malicious_range or (12, 20)
        name = _lcg_chars(rng.getrandbits(31), rng.randint(lo, hi))
    return f"{name}.{rng.choice(_TLDS)}"


def _gen_url(cfg: GeneratorConfig, rng: random.Random, label: int) -> str:
    scheme = rng.choice(("http", "https"))
    if label == 0:
        lo, hi = cfg.legit_range or (1, 3)
        host = rng.choice(WORDLIST) + rng.choice(WORDLIST)
        path = "/".join(rng.choice(WORDLIST) for _ in range(rng.randint(lo, hi)))
        return f"{scheme}://{host}.{rng.choice(_TLDS)}/{path}"
    lo, hi = cfg.malicious_range or (18, 40)
    host = _lcg_chars(rng.getrandbits(31), rng.randint(8, 14))
    path = _lcg_chars(rng.getrandbits(31), rng.randint(lo, hi))
    query = _lcg_chars(rng.getrandbits(31), rng.randint(6, 12))
    return f"{scheme}://{host}.{rng.choice(_TLDS)}/{path}?id={query}"


def _gen_email(cfg: GeneratorConfig, rng: random.Random, label: int) -> str:
    lo, hi = (cfg.legit_range if label == 0 else cfg.malicious_range) or (30, 80)
    own = _EMAIL_LEGIT if label == 0 else _EMAIL_SPAM
    words = []
    for _ in range(rng.randint(lo, hi)):
        pool = own if rng.random() < 0.45 else _EMAIL_COMMON
        words.append(rng.choice(pool))
    return " ".join(words)


_GENERATORS = {"dga": _gen_dga, "url": _gen_url, "email": _gen_email}


def gen_synthetic(config: GeneratorConfig) -> LabeledDataset:
    """Deterministic labeled corpus; same config twice gives identical output.

    Candidates landing in the other split's crc32 bucket are re-drawn, as are
    duplicates, so texts are unique within the corpus and disjoint across
    splits by construction.
    """
    rng = random.Random(config.seed)
    make = _GENERATORS[config.use_case]
    texts: list[str] = []
    labels: list[int] = []
    seen: set[str] = set()
    for label, count in ((0, config.n_legit), (1, config.n_malicious)):
        produced = 0
        attempts = 0
        while produced < count:
            attempts += 1
            if attempts > 200 * count + 10_000:
                raise DataError(
                    f"generator could not produce {count} unique "
                    f"{config.split}-split texts for label {label}"
                )
            text = make(config, rng, label)
            if _split_bucket(text) != config.split or text in seen:
                continue
            seen.add(text)
            texts.append(text)
            labels.append(label)
            produced += 1
    return LabeledDataset(
        texts=tuple(texts),
        labels=tuple(labels),
        use_case=config.use_case,
        split=config.split,
    )


def load_csv(path, use_case: str | None = None, split: str | None = None) -> LabeledDataset:
    """Read a ``text,label`` CSV (RFC 4180 quoting), preserving row order."""
    texts: list[str] = []
    labels: list[int] = []
    seen: set[str] = set()
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file")
            if [h.strip() for h in header] != ["text", "label"]:
                raise ParseError(f"{path}: line 1: expected header 'text,label', got {header}")
            for row in reader:
                line = reader.line_num
                if len(row) != 2:
                    raise ParseError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
                text, label = row
                if label not in ("0", "1"):
                    raise ParseError(f"{path}: line {line}: label must be 0 or 1, got {label!r}")
                if text in seen:
                    raise DataError(f"{path}: line {line}: duplicate text within split")
                seen.add(text)
                texts.append(text)
                labels.append(int(label))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    return LabeledDataset(tuple(texts), tuple(labels), use_case=use_case, split=split)


def save_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "label"])
        for text, label in zip(dataset.texts, dataset.labels):
            writer.writerow([text, label])
