import ast
import csv
import io
import math
import random
import re
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import data as dat

HEADER = "Date,Open,High,Low,Close,Volume\n"

# First two rows of the reference dataset's head.
ROW0 = "2015/1/2, 14.858, 14.883333, 14.217333, 14.620667, 71466000\n"
ROW1 = "2015/1/5, 14.303333, 14.433333, 13.810667, 14.006, 80527500\n"

VALUE_COLUMNS = ("open", "high", "low", "close", "volume")
CLEAN_GRID = dat.synth_ohlcv("sine+noise", 60, 3)  # cleaning leaves it untouched
# Defects to plant in one cell: missing, infinite, non-positive, or off the envelope.
CELL_EDITS = {
    "nan": lambda v: np.nan,
    "inf": lambda v: np.inf,
    "-inf": lambda v: -np.inf,
    "negative": lambda v: -v,
    "zero": lambda v: 0.0,
    "halved": lambda v: v * 0.5,
    "doubled": lambda v: v * 2.0,
}
MISSING_TOKENS = ["", "NaN", "nan", "NA", "n/a", " N/A ", "null", "None"]


def write_csv(tmp_path, body: str, header: str = HEADER):
    p = tmp_path / "prices.csv"
    p.write_text(header + body, encoding="utf-8")
    return p


def _number(lo: int, hi: int):
    """Decimal strings of lo..hi: bare, zero-padded to 2-5 digits, or after a space."""
    n = st.integers(lo, hi)
    return st.one_of(
        n.map(str),
        st.tuples(n, st.integers(2, 5)).map(lambda t: str(t[0]).zfill(t[1])),
        n.map(lambda v: f" {v}"),
    )


@st.composite
def _valid_dates(draw):
    """Real dates in the two accepted layouts, months and days bare or zero-padded."""
    d = draw(st.dates())
    sep = draw(st.sampled_from("/-"))
    month = draw(st.sampled_from([str(d.month), f"{d.month:02d}"]))
    day = draw(st.sampled_from([str(d.day), f"{d.day:02d}", f"{d.day:2d}"]))
    return f"{d.year:04d}{sep}{month}{sep}{day}"


@st.composite
def _near_misses(draw):
    """3-5 digit years, out-of-range fields such as Feb 30, mixed or doubled separators."""
    seps = st.sampled_from(["/", "-", ".", "//", "--", "/-", ""])
    first = draw(seps)
    second = draw(st.one_of(st.just(first), seps))
    return (
        draw(st.one_of(st.integers(1, 9999).map(lambda y: f"{y:04d}"), _number(0, 99999)))
        + first
        + draw(st.one_of(_number(1, 12), _number(0, 13)))
        + second
        + draw(st.one_of(_number(1, 31), _number(0, 32)))
    )


def _date_strings():
    """Dates strptime accepts and near misses, sometimes in full-width digits."""
    # strptime's \d matches any Unicode decimal digit.
    wide = {ord(c): ord(c) + 0xFF10 - ord("0") for c in "0123456789"}
    text = st.one_of(_valid_dates(), _near_misses())
    return st.one_of(text, text.map(lambda t: t.translate(wide)))


def _row(series: dat.OhlcvSeries, i: int) -> dict:
    return {"date": series.dates[i], **{c: float(getattr(series, c)[i]) for c in VALUE_COLUMNS}}


def _clean_reference(series: dat.OhlcvSeries) -> tuple[dat.OhlcvSeries, dat.CleanReport]:
    """Row-at-a-time statement of clean's rules, kept to pin the columnar version."""
    report = dat.CleanReport()
    kept = []
    prev_close = None
    for i in range(len(series)):
        row = _row(series, i)
        if math.isnan(row["close"]):
            report.dropped_missing_close += 1
            continue
        needs = [c for c in ("open", "high", "low") if math.isnan(row[c])]
        if needs and prev_close is None:
            report.dropped_unimputable += 1
            continue
        for c in needs:
            row[c] = prev_close
            setattr(report, f"imputed_{c}", getattr(report, f"imputed_{c}") + 1)
        if math.isnan(row["volume"]):
            row["volume"] = 0.0
            report.imputed_volume += 1
        if any(math.isinf(row[c]) for c in VALUE_COLUMNS):
            report.dropped_nonfinite += 1
            continue
        lo, hi = min(row["open"], row["close"]), max(row["open"], row["close"])
        if not (row["low"] <= lo <= hi <= row["high"]) or row["low"] <= 0 or row["volume"] < 0:
            report.dropped_envelope += 1
            continue
        kept.append(row)
        prev_close = row["close"]
    if not kept:
        raise ValueError("clean dropped every row")
    columns = {c: np.array([r[c] for r in kept]) for c in VALUE_COLUMNS}
    return dat.OhlcvSeries(dates=tuple(r["date"] for r in kept), **columns), report


def _assert_clean_matches_reference(dirty: dat.OhlcvSeries):
    """clean's result, once it has matched the row reference's bit for bit."""
    try:
        want, want_report = _clean_reference(dirty)
    except ValueError:
        with pytest.raises(ValueError, match="every row"):
            dat.clean(dirty)
        return None, None
    got, got_report = dat.clean(dirty)
    assert got_report == want_report
    assert got.dates == want.dates
    for c in VALUE_COLUMNS:
        assert getattr(got, c).tobytes() == getattr(want, c).tobytes()
    return got, got_report


def _parse_reference(path) -> dat.OhlcvSeries:
    """Row-at-a-time statement of parse_csv's rules, kept to pin the columnar version."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text, {exc.reason} at byte {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    col_idx = {}
    for i, name in enumerate(header):
        col_idx.setdefault(name.strip().lower(), i)
    missing = {"date", *VALUE_COLUMNS} - set(col_idx)
    if missing:
        raise ValueError(f"{path}: header lacks columns {sorted(missing)}")
    width = max(col_idx[c] for c in ("date", *VALUE_COLUMNS)) + 1
    dates, values = [], []
    while True:
        lineno = reader.line_num + 1  # the physical line the next record starts on
        raw = next(reader, None)
        if raw is None:
            break
        if not "".join(raw).strip():
            continue
        try:
            if len(raw) < width:
                raise ValueError(f"expected at least {width} fields, found {len(raw)}")
            dates.append(dat._parse_date(raw[col_idx["date"]].strip()))
            values.append([dat._parse_cell(raw[col_idx[c]]) for c in VALUE_COLUMNS])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not dates:
        raise ValueError(f"{path}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in order]
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise ValueError(f"{path}: duplicate date {a}")
    table = np.array(values, dtype=np.float64)[order]
    return dat.OhlcvSeries(tuple(dates), *(np.ascontiguousarray(col) for col in table.T))


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
_EXTRA_CELLS = ["", "x", "a,b", 'say "hi"', "two\nlines"]
_BAD_CELLS = ["oops", "1.2.3", "1,5", "--1", "nan nan", "N/A/", "0x10"]
_BAD_DATES = ["20150102", "2015-W01-1", "2015-01-02T00", "2015-02-30", "2015/13/1", "2015.1.2", ""]


def _assert_parse_matches_reference(path) -> None:
    """parse_csv and the row reference return the same bytes or raise the same error."""
    try:
        want = _parse_reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            dat.parse_csv(path)
        assert str(got.value) == str(exc)
        return
    got = dat.parse_csv(path)
    assert got.dates == want.dates
    for c in VALUE_COLUMNS:
        assert getattr(got, c).tobytes() == getattr(want, c).tobytes()


def _recase(rng: random.Random, text: str) -> str:
    """text with each letter's case drawn and zero to two spaces on either side."""
    text = "".join(rng.choice((c.lower(), c.upper())) for c in text)
    return " " * rng.randrange(3) + text + " " * rng.randrange(3)


def _cell(rng: random.Random, key: str) -> str:
    if key == "date":
        d = date(1990, 1, 1) + timedelta(days=rng.randrange(15000))
        iso, bare = d.isoformat(), f"{d.year}-{d.month}-{d.day}"
        return _recase(rng, rng.choice([iso, bare, bare.replace("-", "/")]))
    if key not in VALUE_COLUMNS:
        return rng.choice(_EXTRA_CELLS)
    return _recase(rng, rng.choice([
        repr(rng.lognormvariate(0, 20) * rng.choice((1, -1))),
        repr(rng.choice(_SPECIAL_FLOATS)),
        str(rng.randrange(-(10**20), 10**20)),
        rng.choice(sorted(dat._MISSING_TOKENS)),
    ]))


@st.composite
def _csv_texts(draw):
    """OHLCV CSV text with every quirk parse_csv must handle, and some defects."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = ["Date", "Open", "High", "Low", "Close", "Volume"]
    names += draw(st.lists(st.sampled_from(["", "Adj Close", "note", "Open", "date"]), max_size=2))
    header = [_recase(rng, name) for name in draw(st.permutations(names))]
    keys = [name.strip().lower() for name in header]
    rows = [[_cell(rng, key) for key in keys] for _ in range(draw(st.integers(0, 12)))]
    # Defects at random rows: duplicate dates, bad cells and dates, short and
    # long rows. Rows are cut short last, so every other defect finds its cell.
    defects = draw(st.lists(
        st.tuples(
            st.sampled_from(["duplicate", "bad cell", "bad date", "short", "long"]),
            st.integers(0, 11),
            st.integers(0, 10),
        ),
        max_size=3,
    ))
    for kind, at, arg in sorted(defects, key=lambda defect: defect[0] == "short"):
        if not rows:
            break
        row = rows[at % len(rows)]
        if kind == "duplicate":
            row[keys.index("date")] = rows[arg % len(rows)][keys.index("date")]
        elif kind == "bad cell":
            row[keys.index(VALUE_COLUMNS[arg % 5])] = _BAD_CELLS[arg % len(_BAD_CELLS)]
        elif kind == "bad date":
            row[keys.index("date")] = _BAD_DATES[arg % len(_BAD_DATES)]
        elif kind == "short":
            del row[arg:]
        else:
            row.extend(["extra"] * (arg % 3 + 1))
    for at, blank in draw(st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from([[], [""], ["", ""], [" ", "", "  "]])),
        max_size=3,
    )):
        rows.insert(at, blank)
    out = io.StringIO()
    writer = csv.writer(
        out,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
    )
    writer.writerows([header, *rows])
    return out.getvalue()


def _group_means_reference(keys, values) -> dict:
    """Running per-key sums in row order, then one division per key."""
    acc = {}
    for k, v in zip(keys, values):
        s = acc.setdefault(k, [0.0, 0])
        s[0] += v
        s[1] += 1
    return {k: s / c for k, (s, c) in sorted(acc.items())}


class TestParseCsv:
    def test_reference_head_rows_exact(self, tmp_path):
        s = dat.parse_csv(write_csv(tmp_path, ROW0 + ROW1))
        assert s.dates[0] == date(2015, 1, 2)
        assert s.open[0] == 14.858
        assert s.high[0] == 14.883333
        assert s.low[0] == 14.217333
        assert s.close[0] == 14.620667
        assert s.volume[0] == 71466000.0
        assert s.dates[1] == date(2015, 1, 5)
        assert s.open[1] == 14.303333
        assert s.high[1] == 14.433333
        assert s.low[1] == 13.810667
        assert s.close[1] == 14.006
        assert s.volume[1] == 80527500.0

    def test_out_of_order_rows_sorted(self, tmp_path):
        a = dat.parse_csv(write_csv(tmp_path, ROW1 + ROW0))
        assert a.dates == (date(2015, 1, 2), date(2015, 1, 5))
        assert a.close[0] == 14.620667

    def test_iso_dates_and_extra_index_column(self, tmp_path):
        p = tmp_path / "iso.csv"
        p.write_text(
            ",Date,Open,High,Low,Close,Volume\n"
            "0,2020-03-01,1,2,0.5,1.5,10\n"
            "1,2020-03-02,1.5,2.5,1.0,2.0,20\n",
            encoding="utf-8",
        )
        s = dat.parse_csv(p)
        assert s.dates == (date(2020, 3, 1), date(2020, 3, 2))
        assert s.close[1] == 2.0

    def test_unparseable_row_names_line(self, tmp_path):
        p = write_csv(tmp_path, ROW0 + "2015/1/6, oops, 1, 1, 1, 5\n")
        with pytest.raises(ValueError, match="line 3"):
            dat.parse_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            dat.parse_csv(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("Date,Open,High,Low,Close\n2015/1/2,1,2,0.5,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="[Vv]olume"):
            dat.parse_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write_csv(tmp_path, ROW0 + ROW0)
        with pytest.raises(ValueError, match="duplicate"):
            dat.parse_csv(p)

    def test_short_row_names_line_and_width(self, tmp_path):
        p = write_csv(tmp_path, ROW0 + "2015/1/5, 14.3, 14.4\n")
        with pytest.raises(ValueError, match="line 3: expected at least 6 fields, found 3$"):
            dat.parse_csv(p)
        with pytest.raises(ValueError, match="line 3: expected at least 6 fields, found 3$"):
            _parse_reference(p)

    def test_first_failing_row_is_reported(self, tmp_path):
        # Row 3 fails on its volume, row 4 on its date and row 5 on its width:
        # the date column alone would blame row 4.
        body = ROW0 + "2015/1/5, 1, 2, 0.5, 1, lots\n2015/13/1, 1, 2, 0.5, 1, 5\n2015/1/7\n"
        with pytest.raises(ValueError, match="line 3: could not convert string to float: ' lots'"):
            dat.parse_csv(write_csv(tmp_path, body))

    def test_error_names_the_line_a_row_starts_on(self, tmp_path):
        # Row 1's quoted note spans lines 2 and 3, so row 2 starts on line 4.
        body = '2015/1/2,1,2,0.5,1,5,"two\nlines"\n2015/1/5,1,2,0.5,oops,5,x\n'
        p = write_csv(tmp_path, body, header="Date,Open,High,Low,Close,Volume,Note\n")
        with pytest.raises(ValueError, match="line 4: could not convert string to float: 'oops'$"):
            dat.parse_csv(p)
        assert "oops" in p.read_text(encoding="utf-8").splitlines()[3]

    @given(_csv_texts())
    @example('Date,Open,High,Low,Close,Volume,Note\n2015/1/2,1,2,0.5,1,5,"two\nlines"\n'
             '2015/1/5,1,2,0.5,oops,5,x\n')
    @example('Date,Open,High,Low,Close,Volume\r\n\r\n2015/1/2,1,2,0.5,1,5\r\n'
             '2015.1.5,1,2,0.5,1,5\r\n')
    @settings(max_examples=300, deadline=None)
    def test_error_line_starts_the_record_with_the_token(self, text):
        # On a bad value or date, csv reads from the named line a record that holds the token.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prices.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                dat.parse_csv(path)
                return
            except ValueError as exc:
                message = str(exc)
        found = re.fullmatch(
            r".*?: line (\d+): (?:could not convert string to float: (.*)"
            r"|unrecognized date (.*) \(expected YYYY/M/D or YYYY-MM-DD\))",
            message,
            re.DOTALL,
        )
        if found is None:
            return  # a short row, a bad header, no rows or a duplicate date
        lineno, value, date_text = found.groups()
        lines = io.StringIO(text, newline="").readlines()
        record = next(csv.reader(lines[int(lineno) - 1 :]))
        # A value's token is the raw cell; a date's is the cell stripped.
        cells = record if value is not None else [cell.strip() for cell in record]
        assert ast.literal_eval(value or date_text) in cells

    # parse_csv reads rows in blocks of 128: a defect on either side of a
    # block's edge, then with a bad volume that only a later block holds.
    @pytest.mark.parametrize("at", [0, 127, 128, 383, 600])
    @pytest.mark.parametrize("defect", ["bad close", "bad date", "short", "blank", "missing"])
    def test_blocks_match_row_reference(self, tmp_path, at, defect):
        path = tmp_path / "prices.csv"
        dat.write_ohlcv_csv(dat.synth_ohlcv("gbm", 700, 5), path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines]
        if defect == "bad close":
            rows[at][4] = "oops"
        elif defect == "bad date":
            rows[at][0] = "2016-02-30"
        elif defect == "short":
            del rows[at][3:]
        elif defect == "missing":
            rows[at][4] = "NA"
        else:
            rows.insert(at, [])
        for volume in ("1000", "lots"):
            rows[-1][5] = volume
            path.write_text("\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
            _assert_parse_matches_reference(path)

    @given(_csv_texts())
    @example("Date,Open,High,Low,Close,Volume\n")
    @example("Date,Open,High,Low,Close,Volume\n2015-01-02,1,2,0.5,NA,7\n,,,\n2015/1/5,1\n")
    @settings(max_examples=300, deadline=None)
    def test_matches_row_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prices.csv"
            path.write_text(text, encoding="utf-8", newline="")
            _assert_parse_matches_reference(path)

    @given(_date_strings())
    @example("20150102")
    @example("2015-W01-1")
    @example("2015-01-02T00")
    @example("2015/1/ 5")
    @example("2016-02-30")
    @example("2015/1-2")
    @example("2015//1/2")
    @example("２０１５-０１-０２")
    @example("２０１５/1/1５")
    @settings(max_examples=400)
    def test_date_parser_matches_strptime(self, text):
        want = None
        for fmt in ("%Y/%m/%d", "%Y-%m-%d"):
            try:
                want = datetime.strptime(text, fmt).date()
                break
            except ValueError:
                pass
        if want is None:
            with pytest.raises(ValueError, match="unrecognized date"):
                dat._parse_date(text)
        else:
            assert dat._parse_date(text) == want


class TestClean:
    def test_clean_series_is_noop(self, sine_series):
        cleaned, report = dat.clean(sine_series)
        assert len(cleaned) == len(sine_series)
        assert report == dat.CleanReport()
        np.testing.assert_array_equal(cleaned.close, sine_series.close)

    def test_envelope_violation_dropped(self, tmp_path):
        body = ROW0 + ROW1 + "2015/1/6, 14.0, 13.0, 15.0, 14.1, 1000\n"  # high < low
        cleaned, report = dat.clean(dat.parse_csv(write_csv(tmp_path, body)))
        assert len(cleaned) == 2
        assert report.dropped_envelope == 1

    def test_missing_close_dropped(self, tmp_path):
        body = ROW0 + "2015/1/5, 14.3, 14.4, 13.8, , 100\n"
        cleaned, report = dat.clean(dat.parse_csv(write_csv(tmp_path, body)))
        assert len(cleaned) == 1
        assert report.dropped_missing_close == 1

    def test_missing_open_imputed_from_previous_close(self, tmp_path):
        body = ROW0 + "2015/1/5, , 14.7, 13.8, 14.006, 100\n"
        cleaned, report = dat.clean(dat.parse_csv(write_csv(tmp_path, body)))
        assert report.imputed_open == 1
        assert cleaned.open[1] == 14.620667  # previous close

    def test_all_rows_dropped_is_error(self, tmp_path):
        body = "2015/1/2, 1, 2, 0.5, , 10\n"
        with pytest.raises(ValueError, match="every row"):
            dat.clean(dat.parse_csv(write_csv(tmp_path, body)))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(CLEAN_GRID) - 1),
                st.sampled_from(VALUE_COLUMNS),
                st.sampled_from([np.inf, -np.inf]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_infinite_cells_dropped_and_counted(self, cells):
        columns = {c: getattr(CLEAN_GRID, c).copy() for c in VALUE_COLUMNS}
        for i, c, v in cells:
            columns[c][i] = v
        dirty = dat.OhlcvSeries(dates=CLEAN_GRID.dates, **columns)
        cleaned, report = dat.clean(dirty)
        for c in VALUE_COLUMNS:
            assert np.isfinite(getattr(cleaned, c)).all()
        dropped = report.dropped_missing_close + report.dropped_envelope
        dropped += report.dropped_unimputable + report.dropped_nonfinite
        assert len(dirty) - len(cleaned) == dropped
        assert report.dropped_nonfinite == len({i for i, _, _ in cells})

    def test_idempotent(self, tmp_path):
        body = ROW0 + "2015/1/5, , 14.7, 13.8, 14.006, 100\n" + "2015/1/6, 14.0, 13.0, 15.0, 14.1, 10\n"
        once, _ = dat.clean(dat.parse_csv(write_csv(tmp_path, body)))
        twice, report = dat.clean(once)
        assert report == dat.CleanReport()
        assert twice.dates == once.dates
        np.testing.assert_array_equal(twice.open, once.open)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(CLEAN_GRID) - 1),
                st.sampled_from(VALUE_COLUMNS),
                st.sampled_from(sorted(CELL_EDITS)),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_matches_row_reference(self, cells):
        columns = {c: getattr(CLEAN_GRID, c).copy() for c in VALUE_COLUMNS}
        for i, c, edit in cells:
            columns[c][i] = CELL_EDITS[edit](columns[c][i])
        _assert_clean_matches_reference(dat.OhlcvSeries(dates=CLEAN_GRID.dates, **columns))

    # Runs of rows that need imputation, where an imputed row the envelope
    # drops sends the next one further back for its close. On the grid a
    # missing high on an up day is such a row.
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(CLEAN_GRID) - 1),
                st.integers(1, 8),
                st.sampled_from(("open", "high", "low")),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.tuples(
                st.integers(0, len(CLEAN_GRID) - 1),
                st.sampled_from(VALUE_COLUMNS),
                st.sampled_from(sorted(CELL_EDITS)),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100)
    def test_adjacent_gaps_match_row_reference(self, runs, cells):
        columns = {c: getattr(CLEAN_GRID, c).copy() for c in VALUE_COLUMNS}
        for start, length, c in runs:
            columns[c][start : start + length] = np.nan
        for i, c, edit in cells:
            columns[c][i] = CELL_EDITS[edit](columns[c][i])
        _assert_clean_matches_reference(dat.OhlcvSeries(dates=CLEAN_GRID.dates, **columns))

    def test_dropped_imputed_row_sends_the_next_further_back(self, tmp_path):
        body = (
            "2015/1/2, 10, 11, 9, 10, 5\n"
            "2015/1/5, , 12, 9, 11, 5\n"  # open from row 1's close: kept
            "2015/1/6, 11, , 10, 12, 5\n"  # high from row 2's close, 11 < 12: dropped
            "2015/1/7, 12, 13, , 12.5, 5\n"  # low from row 2's close again, not row 3's
        )
        dirty = dat.parse_csv(write_csv(tmp_path, body))
        cleaned, report = _assert_clean_matches_reference(dirty)
        assert cleaned.dates == (date(2015, 1, 2), date(2015, 1, 5), date(2015, 1, 7))
        assert cleaned.open[1] == 10.0 and cleaned.low[2] == 11.0
        assert report == dat.CleanReport(
            dropped_envelope=1, imputed_open=1, imputed_high=1, imputed_low=1
        )

    def test_every_row_needing_imputation(self):
        columns = {c: getattr(CLEAN_GRID, c).copy() for c in VALUE_COLUMNS}
        columns["open"][1:] = np.nan  # each row fills from the row before it
        cleaned, report = _assert_clean_matches_reference(
            dat.OhlcvSeries(dates=CLEAN_GRID.dates, **columns)
        )
        assert report == dat.CleanReport(imputed_open=len(CLEAN_GRID) - 1)
        np.testing.assert_array_equal(cleaned.open, CLEAN_GRID.open)
        columns["open"][0] = np.nan  # now no row has a kept row before it
        dirty = dat.OhlcvSeries(dates=CLEAN_GRID.dates, **columns)
        with pytest.raises(ValueError, match="every row"):
            _clean_reference(dirty)
        with pytest.raises(ValueError, match="every row"):
            dat.clean(dirty)


class TestMonthwise:
    def test_empty_series_rejected(self):
        empty = dat.OhlcvSeries((), *5 * [np.zeros(0)])
        with pytest.raises(ValueError, match="monthwise_means needs a non-empty series"):
            dat.monthwise_means(empty)

    def test_single_month_series(self):
        dates = tuple(date(2021, 1, d) for d in range(4, 9))
        v = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        s = dat.OhlcvSeries(dates=dates, open=v, high=v + 1, low=v - 1, close=v, volume=v * 0 + 5)
        means = dat.monthwise_means(s)
        assert set(means) == {1}
        assert means[1] == (12.0, 12.0)

    def test_constant_series(self, tmp_path):
        rows = "".join(
            f"2021/{m}/10, 5, 5, 5, 5, 10\n" for m in range(1, 13)
        )
        s = dat.parse_csv(write_csv(tmp_path, rows))
        means = dat.monthwise_means(s)
        assert set(means) == set(range(1, 13))
        for m in means:
            assert means[m] == (5.0, 5.0)

    def test_doubled_month_is_greatest(self):
        closes = []
        dates = []
        d = date(2019, 1, 1)
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(600):
            base = 10.0 + rng.normal() * 0.01
            if d.month == 2:
                base *= 2
            closes.append(base)
            dates.append(d)
            (d,) = dat.weekday_dates(d, 1)
        v = np.array(closes)
        s = dat.OhlcvSeries(
            dates=tuple(dates), open=v, high=v * 1.01, low=v * 0.99, close=v,
            volume=np.full(len(v), 7.0),
        )
        means = dat.monthwise_means(s)
        feb = means[2][1]
        assert all(feb > means[m][1] for m in means if m != 2)

    def test_monthly_mean_series_chronological(self, sine_series):
        m = dat.monthly_mean_series(sine_series)
        assert m.ndim == 1
        months = [(d.year, d.month) for d in sine_series.dates]
        want = _group_means_reference(months, sine_series.high.tolist())
        assert list(want) == sorted(want)  # chronological
        assert m.tolist() == list(want.values())

    @given(st.integers(1, 700), st.integers(0, 2**32 - 1), st.integers(0, 4000))
    @settings(max_examples=60)
    def test_means_equal_running_sums_bitwise(self, n, seed, start):
        # Prices spanning many magnitudes, so a different summation order would show.
        g = np.random.default_rng(seed)
        v = np.exp(g.normal(size=(5, n)) * 8.0)
        dates = dat.weekday_dates(date(2000, 1, 3) + timedelta(days=start), n)
        s = dat.OhlcvSeries(dates=dates, open=v[0], high=v[1], low=v[2], close=v[3], volume=v[4])
        months = [d.month for d in dates]
        want_open = _group_means_reference(months, v[0].tolist())
        want_close = _group_means_reference(months, v[3].tolist())
        assert dat.monthwise_means(s) == {m: (want_open[m], want_close[m]) for m in want_open}
        year_months = [(d.year, d.month) for d in dates]
        want = _group_means_reference(year_months, s.high.tolist())
        got = dat.monthly_mean_series(s)
        assert got.tobytes() == np.array(list(want.values())).tobytes()


class TestScaler:
    def test_round_trip(self, rng):
        v = rng.normal(size=200) * 40 + 100
        sc = dat.fit_scaler(v)
        np.testing.assert_allclose(sc.inverse(sc.transform(v)), v, atol=1e-12)

    def test_endpoints(self):
        sc = dat.fit_scaler([2.0, 4.0, 10.0])
        assert sc.transform(2.0) == 0.0
        assert sc.transform(10.0) == 1.0

    def test_extrapolation_above_max(self):
        sc = dat.fit_scaler([0.0, 10.0])
        assert sc.transform(12.0) > 1.0

    def test_constant_training_data_rejected(self):
        with pytest.raises(ValueError):
            dat.fit_scaler([3.0, 3.0, 3.0])

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=60)
    def test_round_trip_property(self, v):
        sc = dat.fit_scaler([-1e6, 1e6])
        assert abs(sc.inverse(sc.transform(v)) - v) < 1e-6  # scaled by range 2e6


class TestWindows:
    def test_counting(self):
        ds = dat.make_windows(np.arange(100.0), 10)
        assert len(ds) == 90

    def test_first_sample(self):
        ds = dat.make_windows(np.arange(6.0), 2)
        np.testing.assert_array_equal(ds.inputs[0], [0.0, 1.0])
        assert ds.targets[0] == 2.0

    def test_targets_reconstruct_tail(self, rng):
        v = rng.normal(size=50)
        ds = dat.make_windows(v, 7)
        np.testing.assert_array_equal(ds.targets, v[7:])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dat.make_windows(np.arange(5.0), 5)

    def test_lookback_below_1_rejected(self):
        with pytest.raises(ValueError, match="lookback must be >= 1, got 0"):
            dat.make_windows(np.arange(5.0), 0)

    @pytest.mark.parametrize(
        "inputs, targets",
        [
            (np.zeros(4), np.zeros(4)),  # 1-D inputs
            (np.zeros((4, 3)), np.zeros(5)),  # one target short of a row each
            (np.zeros((4, 3)), np.zeros((4, 1))),  # 2-D targets
        ],
        ids=["1-d-inputs", "row-count-mismatch", "2-d-targets"],
    )
    def test_unpaired_windows_rejected(self, inputs, targets):
        with pytest.raises(ValueError, match="one target per row"):
            dat.WindowedDataset(inputs, targets)

    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=299),
    )
    @settings(max_examples=100)
    def test_window_count_formula(self, n, lookback):
        v = np.arange(float(n))
        if n <= lookback:
            with pytest.raises(ValueError):
                dat.make_windows(v, lookback)
        else:
            assert len(dat.make_windows(v, lookback)) == n - lookback


class TestSplit:
    def test_reference_row_count_arithmetic(self):
        s = dat.synth_ohlcv("random-walk", 2274, 3)
        train, val, test = dat.chronological_split(s, test_len=30, val_frac=0.10)
        assert (len(train), len(val), len(test)) == (2020, 224, 30)

    def test_zero_test_len_rejected(self, sine_series):
        with pytest.raises(ValueError):
            dat.chronological_split(sine_series, test_len=0, val_frac=0.1)

    def test_partition_identity(self, sine_series):
        train, val, test = dat.chronological_split(sine_series, 30, 0.1)
        assert train.dates + val.dates + test.dates == sine_series.dates
        rejoined = np.concatenate([train.close, val.close, test.close])
        np.testing.assert_array_equal(rejoined, sine_series.close)


class TestSynth:
    def test_sine_default_recipe(self):
        v = dat.synth_series("sine+noise", 200, 0)
        wave = np.sin(2.0 * np.pi * np.arange(200) / 40.0) + 10.0
        noise = 0.05 * np.random.default_rng(0).standard_normal(200)
        np.testing.assert_allclose(v - wave, noise, atol=1e-12)

    def test_gbm_default_recipe(self):
        v = dat.synth_series("gbm", 50, 0)
        log_path = (0.0005 - 0.5 * 0.01**2) * np.arange(50)
        log_path[1:] += 0.01 * np.cumsum(np.random.default_rng(0).standard_normal(49))
        np.testing.assert_allclose(v, 100.0 * np.exp(log_path), rtol=1e-12)

    def test_same_seed_identical(self):
        a = dat.synth_series("random-walk", 100, 9)
        b = dat.synth_series("random-walk", 100, 9)
        np.testing.assert_array_equal(a, b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            dat.synth_series("brownian-bridge", 50, 0)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            dat.synth_series("gbm", 0, 0)

    def test_ohlcv_fixture_is_valid_and_clean(self):
        s = dat.synth_ohlcv("gbm", 120, 5)
        cleaned, report = dat.clean(s)
        assert report == dat.CleanReport()
        assert len(cleaned) == 120

    def test_csv_round_trip(self, tmp_path, sine_series):
        p = tmp_path / "rt.csv"
        dat.write_ohlcv_csv(sine_series, p)
        back = dat.parse_csv(p)
        assert back.dates == sine_series.dates
        np.testing.assert_array_equal(back.close, sine_series.close)
        np.testing.assert_array_equal(back.volume, sine_series.volume)


def _write_ohlcv_csv_reference(series: dat.OhlcvSeries, path) -> None:
    """The row-at-a-time writer, kept to pin write_ohlcv_csv's bytes."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", "Open", "High", "Low", "Close", "Volume"])
        for i in range(len(series)):
            r = _row(series, i)
            writer.writerow(
                [
                    r["date"].isoformat(),
                    repr(r["open"]),
                    repr(r["high"]),
                    repr(r["low"]),
                    repr(r["close"]),
                    int(r["volume"]),
                ]
            )


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0**53 + 2, 1e20]


@st.composite
def _any_series(draw):
    """Raw series with any float prices (NaN and infinities too) and finite volumes."""
    n = draw(st.integers(1, 12))
    start = draw(st.integers(date(1900, 1, 1).toordinal(), date(2100, 1, 1).toordinal()))
    gaps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    dates = tuple(date.fromordinal(start + sum(gaps[: i + 1])) for i in range(n))
    price = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats())
    volume = st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.integers(0, 2**80).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    columns = {
        c: np.array(draw(st.lists(volume if c == "volume" else price, min_size=n, max_size=n)))
        for c in VALUE_COLUMNS
    }
    return dat.OhlcvSeries(dates, **columns)


class TestWriteCsv:
    @given(_any_series())
    @example(
        dat.OhlcvSeries(
            (date(2015, 1, 2), date(2015, 1, 5)),
            *(np.array(pair) for pair in ([-0.0, 5e-324], [1e308, -0.0], [5e-324, 1e308],
                                          [1e308, 5e-324], [2.0**63, 123456789012345678901.0]))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_reference_bytes(self, series):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            dat.write_ohlcv_csv(series, got)
            _write_ohlcv_csv_reference(series, want)
            assert got.read_bytes() == want.read_bytes()


class TestFingerprint:
    def test_stable_and_content_sensitive(self, sine_series):
        a = dat.fingerprint(sine_series)
        b = dat.fingerprint(sine_series)
        assert a == b
        other = dat.fingerprint(sine_series.slice(0, len(sine_series) - 1))
        assert other["sha256"] != a["sha256"]
        assert a["n_rows"] == len(sine_series)

    def test_empty_series_rejected(self, sine_series):
        with pytest.raises(ValueError, match="fingerprint needs a non-empty series"):
            dat.fingerprint(sine_series.slice(0, 0))


def test_series_invariants_enforced():
    d = (date(2020, 1, 2), date(2020, 1, 1))
    v = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        dat.OhlcvSeries(dates=d, open=v, high=v, low=v, close=v, volume=v)
    with pytest.raises(ValueError):
        dat.OhlcvSeries(
            dates=(date(2020, 1, 1),), open=v, high=v, low=v, close=v, volume=v
        )


def test_nan_volume_imputed_zero(tmp_path):
    body = ROW0 + "2015/1/5, 14.3, 14.4, 13.8, 14.0, \n"
    cleaned, report = dat.clean(dat.parse_csv(write_csv(tmp_path, body)))
    assert report.imputed_volume == 1
    assert cleaned.volume[1] == 0.0


def test_weekday_dates_skip_weekends():
    ds = dat.weekday_dates(date(2015, 1, 1), 4)  # the Thursday before a weekend
    assert ds == (date(2015, 1, 2), date(2015, 1, 5), date(2015, 1, 6), date(2015, 1, 7))
    assert all(d.weekday() < 5 for d in ds)
    assert dat.weekday_dates(date(2015, 1, 3), 1) == (date(2015, 1, 5),)  # after a Saturday


def test_weekday_dates_stop_at_the_last_representable_date():
    # 9999-12-26 is a Sunday and date.max, 9999-12-31, a Friday.
    assert dat.weekday_dates(date(9999, 12, 26), 5)[-1] == date.max
    with pytest.raises(ValueError, match="6 weekdays after 9999-12-26 run past 9999-12-31"):
        dat.weekday_dates(date(9999, 12, 26), 6)


def test_weekday_dates_check_n_before_allocating():
    with pytest.raises(ValueError, match="run past 9999-12-31"):
        dat.weekday_dates(date(2016, 2, 25), 10**12)


def _weekday_dates_reference(after: date, n: int) -> tuple[date, ...]:
    """A day-by-day loop over the days after the given date."""
    out = []
    day = after.toordinal() + 1
    while len(out) < n:
        if day > date.max.toordinal():
            raise ValueError(
                f"{n} weekdays after {after.isoformat()} run past "
                f"{date.max.isoformat()}, the last representable date"
            )
        d = date.fromordinal(day)
        if d.weekday() < 5:
            out.append(d)
        day += 1
    return tuple(out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(
    after=st.one_of(
        st.dates(),
        st.integers(0, 120).map(lambda k: date.max - timedelta(days=k)),  # the last weeks
    ),
    n=st.integers(-2, 400),
)
@example(after=date(2015, 1, 3), n=1)  # after a Saturday
@example(after=date(2015, 1, 4), n=0)  # after a Sunday
@example(after=date.max, n=2)
@example(after=date.min, n=400)
@settings(max_examples=300)
def test_weekday_dates_match_day_loop_reference(after, n):
    assert _outcome(dat.weekday_dates, after, n) == _outcome(_weekday_dates_reference, after, n)


@given(
    n=st.integers(45, 150),
    seed=st.integers(0, 2**16),
    layout_seed=st.integers(0, 2**32 - 1),
    n_missing=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_csv_pipeline_properties(n, seed, layout_seed, n_missing):
    """Shuffled rows, mixed date formats and missing tokens through the whole data chain."""
    series = dat.synth_ohlcv("gbm", n, seed)
    layout = random.Random(layout_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        dat.write_ohlcv_csv(series, path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines]
        missing = {(layout.randrange(n), layout.randrange(1, 6)) for _ in range(n_missing)}
        for i, cell in missing:
            rows[i][cell] = layout.choice(MISSING_TOKENS)
        for row, d in zip(rows, series.dates):
            row[0] = layout.choice([
                d.isoformat(),
                f"{d.year}-{d.month}-{d.day}",
                f"{d.year}/{d.month}/{d.day}",
                f"{d.year}/{d.month:02d}/{d.day:02d}",
            ])
        layout.shuffle(rows)
        path.write_text("\n".join([header, *(",".join(r) for r in rows)]) + "\n", encoding="utf-8")
        parsed = dat.parse_csv(path)

    assert all(a < b for a, b in zip(parsed.dates, parsed.dates[1:]))
    assert parsed.dates == series.dates
    planted = np.zeros((n, 5), dtype=bool)
    for i, cell in missing:
        planted[i, cell - 1] = True
    for j, c in enumerate(VALUE_COLUMNS):
        got = getattr(parsed, c)
        assert np.isnan(got[planted[:, j]]).all()
        np.testing.assert_array_equal(got[~planted[:, j]], getattr(series, c)[~planted[:, j]])

    cleaned, _ = dat.clean(parsed)
    again, report = dat.clean(cleaned)
    assert report == dat.CleanReport()
    assert again.dates == cleaned.dates
    for c in VALUE_COLUMNS:
        np.testing.assert_array_equal(getattr(again, c), getattr(cleaned, c))

    train, _, _ = dat.chronological_split(cleaned, test_len=5, val_frac=0.1)
    scaled = dat.fit_scaler(train.close).transform(train.close)
    assert scaled.min() == 0.0 and scaled.max() == 1.0
    assert ((scaled >= 0.0) & (scaled <= 1.0)).all()
