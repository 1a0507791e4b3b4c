"""Malformed surface definitions and cover files, drawn at random.

parse_surface_config, parse_cover_file and surface_config_from_dict read
text and JSON that no program wrote. Each drawn input either parses or
raises ConfigError, and a parsed config builds its fibred form or raises
ConfigError too; some of the texts also go through `classify`, which must
exit 0 or 2. The tokens are signed decimals with '_', '.', exponents and
'/', printable junk, and the edge cases of Fraction and float parsing;
the keys are the known fields and unknown ones, the kinds the three known
and a bogus one. Each example finishes within the hypothesis deadline.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from rankjump.cli import main
from rankjump.config import (
    ConfigError,
    parse_cover_file,
    parse_surface_config,
    surface_config_from_dict,
)

DEADLINE_MS = 2000

DECIMALS = st.from_regex(
    r"[-+]?[0-9_]{0,6}(\.[0-9_]{0,4})?([eE][-+]?[0-9_]{1,5})?(/[-+]?[0-9_]{1,5})?",
    fullmatch=True)
SPECIAL = st.sampled_from(["nan", "-inf", "inf", "1e999999", "-1e-999999", "0/0", "1/0",
                           "½", "١", "1e4", "10000", "10001", "1/10000", "0.0001"])
JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF), min_size=1, max_size=6)
TOKENS = st.one_of(DECIMALS, SPECIAL, JUNK)
FIELDS = {"twist": ("f", "g"), "km": ("a3", "a2", "a1", "a0"), "weierstrass": ("A", "B"),
          "cubic": ("f",)}
#: coefficient counts of each field, mostly those a valid surface has
SIZES = {"f": (4, 4), "g": (2, 3), "A": (1, 5), "B": (1, 7)}
KINDS = st.sampled_from(sorted(FIELDS))
KEYS = st.sampled_from(["label", "f", "g", "a3", "a2", "a1", "a0", "A", "B", "h", "kinds"])
OTHER_JSON = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TOKENS,
                       st.lists(TOKENS, max_size=2), st.dictionaries(TOKENS, TOKENS, max_size=2))
SMALL = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-5/3", "1_0", "2e1", "-.5", "+4"])


@st.composite
def coefficients(draw) -> str:
    """Mostly a small rational in one of the accepted spellings; one time
    in twenty any token."""
    return draw(TOKENS if draw(st.integers(0, 19)) == 0 else SMALL)


@st.composite
def config_texts(draw) -> str:
    """A config text: a kind line (nearly always), most of the kind's fields
    and now and then another key, each line of drawn coefficients, in any
    order, and now and then a junk line."""
    kind = draw(KINDS)
    keys = [key for key in FIELDS[kind] if draw(st.integers(0, 9))]
    lines = [f"kind = {kind}"] if draw(st.integers(0, 9)) else []
    for key in keys + ([draw(KEYS)] if draw(st.integers(0, 3)) == 0 else []):
        sep = draw(st.sampled_from([", ", " ", ","]))
        low, high = SIZES.get(key, (1, 3)) if draw(st.integers(0, 4)) else (1, 4)
        tokens = draw(st.lists(coefficients(), min_size=low, max_size=high))
        lines.append(f"{key} = {sep.join(tokens)}")
    if draw(st.integers(0, 7)) == 0:
        lines.append(draw(JUNK))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def cover_texts(draw) -> str:
    """A cover file: lines of drawn tokens, comments and blank lines."""
    lines = [" ".join(draw(st.lists(TOKENS, max_size=4)))
             + draw(st.sampled_from(["", "  # a cover"]))
             for _ in range(draw(st.integers(0, 4)))]
    return "\n".join(lines)


@st.composite
def surface_dicts(draw) -> dict:
    """A stored surface: a kind (nearly always), most of the kind's fields
    and maybe other keys, with coefficients drawn as in config_texts or as
    JSON numbers; now and then the kind or a field is another JSON value."""
    kind = draw(KINDS)
    data = {"kind": kind} if draw(st.integers(0, 9)) else {}
    coefficient = st.one_of(coefficients(), st.integers(-20000, 20000), st.floats())
    keys = [key for key in FIELDS[kind] if draw(st.integers(0, 9))]
    for key in keys + draw(st.lists(KEYS, max_size=2)):
        data[key] = draw(TOKENS) if key == "label" else draw(st.lists(coefficient, max_size=4))
    if draw(st.integers(0, 9)) == 0:  # a value of another JSON type
        data[draw(st.sampled_from(["kind", *keys] if keys else ["kind"]))] = draw(OTHER_JSON)
    return data


def _parsed_or_config_error(parse, *args):
    """parse(*args), or None if it raised ConfigError; anything else fails."""
    try:
        return parse(*args)
    except ConfigError:
        return None


@settings(max_examples=300, deadline=DEADLINE_MS)
@given(config_texts())
@example("kind = twist\nf = 1e999999, 0, 0, 1\ng = 0, 1")
@example("kind = km\na3 = ½\na2 = ١\na1 = nan\na0 = 0/0")
@example("kind = weierstrass\nA = 0\nB = 0, 1")
def test_config_text_parses_or_config_error(text):
    cfg = _parsed_or_config_error(parse_surface_config, text)
    if cfg is not None:
        _parsed_or_config_error(lambda: cfg.fibred)


@settings(max_examples=60, deadline=DEADLINE_MS)
@given(config_texts())
@example("kind = twist\nf = 0, -1, 0, 1\ng = 0, 1")
@example("kind = twist\nf = 0, 0, 0, 1\ng = 0, 1")
def test_classify_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.cfg"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", "--config", str(path)])
    assert code in (0, 2), (text, err.getvalue())


@settings(max_examples=150, deadline=DEADLINE_MS)
@given(cover_texts())
@example("1e999999 1\n")
@example("0/0\n½, ١\n")
def test_cover_file_parses_or_config_error(text):
    _parsed_or_config_error(parse_cover_file, text)


@settings(max_examples=300, deadline=DEADLINE_MS)
@given(surface_dicts())
@example({"kind": "twist", "f": [float("nan")], "g": ["0", "1"]})
@example({"kind": "km", "a3": ["1e999999"], "a2": [], "a1": [], "a0": [10**5]})
@example({"kind": "twist", "f": 5, "g": ["0", "1"]})
@example({"kind": ["twist"]})
@example(["kind", "twist"])
def test_surface_dict_parses_or_config_error(data):
    cfg = _parsed_or_config_error(surface_config_from_dict, data)
    if cfg is not None:
        _parsed_or_config_error(lambda: cfg.fibred)
