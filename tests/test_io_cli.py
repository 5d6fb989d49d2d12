import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import draftvalue
from draftvalue.cescin import FACTOR_CATEGORIES
from draftvalue.cli import main
from draftvalue.config import RunConfig, parse_config_text
from draftvalue.core_model import Draft, ImputationConfig, Metric
from draftvalue.io import BLOCK_CHUNKS, CHUNK_ROWS, CSV_COLUMNS, DataError, load_draft_csv, write_draft_csv
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.valuation import DollarConstants

from conftest import arrays, one_class

HEADER = ",".join(CSV_COLUMNS)


def write_csv(tmp_path, rows, name="draft.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_valid_file(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0",
                "1998,2,T02,Bravo,D,NA_SKATER,2,0,,",
                "1998,3,T03,Charlie,G,NA_GOALIE,1,50,,2.0",
            ],
        )
        classes = load_draft_csv(path)
        assert len(classes) == 1 and len(classes.columns.selection) == 3
        metrics = classes[0].columns.metrics
        assert classes[0].columns.selection.tolist() == [1, 2, 3]
        assert metrics[Metric.GVT][1] == -30.0
        assert metrics[Metric.TOI][2] == 1000.0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "draft.csv"
        path.write_text("1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0\n")
        with pytest.raises(DataError):
            load_draft_csv(path)

    def test_duplicate_selection_names_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0",
                "1998,1,T02,Bravo,C,NA_SKATER,2,10,150.0,0.5",
            ],
        )
        with pytest.raises(DataError, match="line 3"):
            load_draft_csv(path)

    def test_unparseable_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["1998,one,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0"])
        with pytest.raises(DataError, match="line 2"):
            load_draft_csv(path)

    def test_invalid_position_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["1998,1,T01,Alpha,X,NA_SKATER,1,100,1500.0,5.0"])
        with pytest.raises(DataError, match="position"):
            load_draft_csv(path)

    def test_missing_slot_accepted(self, tmp_path, caplog):
        rows = [
            f"2002,{s},T01,P{s},C,NA_SKATER,{s},10,150.0,0.5"
            for s in range(121, 126)
            if s != 123
        ]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.INFO, logger="draftvalue"):
            classes = load_draft_csv(path)
        assert len(classes[0].columns.selection) == 4
        assert any("123" in m for m in caplog.messages)

    def test_selection_past_210_dropped_with_warning(self, tmp_path, caplog):
        rows = [
            "1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0",
            "1998,211,T02,Omega,C,NA_SKATER,2,10,150.0,0.5",
        ]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING, logger="draftvalue"):
            classes = load_draft_csv(path)
        assert len(classes[0].columns.selection) == 1
        assert any("211" in m for m in caplog.messages)

    def test_rows_past_210_logged_once(self, tmp_path, caplog):
        rows = [f"1998,{s},T01,P{s},C,NA_SKATER,{s},10,150.0,0.5" for s in (1, 211, 2, 212, 250)]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING, logger="draftvalue"):
            classes = load_draft_csv(path)
        assert [dc.columns.selection.tolist() for dc in classes] == [[1, 2]]
        assert len(caplog.messages) == 1
        message = caplog.messages[0]
        assert "dropped 3 row(s)" in message and "line 3" in message and "211" in message

    @pytest.mark.parametrize("column", [0, 1, 6, 7])  # year, selection, rank, gp7
    def test_integer_past_int64_names_line(self, tmp_path, column):
        fields = "1998,2,T02,Bravo,C,NA_SKATER,2,10,150.0,0.5".split(",")
        fields[column] = "99999999999999999999"
        path = write_csv(tmp_path, ["1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0", ",".join(fields)])
        with pytest.raises(DataError, match=f"line 3: {CSV_COLUMNS[column]}: integer out of the 64-bit"):
            load_draft_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the header is line 1: a rule broken at line 2 comes before a
            # field that cannot be parsed at line 3, and the other way round
            (["1998,1,T01,A,C,NA_SKATER,1,-5,,", "1998,x,T01,B,C,NA_SKATER,2,10,1.0,1.0"],
             "line 2: gp7: must be >= 0, got -5"),
            (["1998,x,T01,B,C,NA_SKATER,2,10,1.0,1.0", "1998,1,T01,A,C,NA_SKATER,1,-5,,"],
             "line 2: unparseable integer field"),
            # within a row the fields are checked in column order
            (["1998,1,T01,A,X,NA_SKATER,1,10,abc,1.0"], "line 2: position: unknown code 'X'"),
            (["1998,1,T01,A,C,NA_SKATER,1,10,abc,1.0,extra"], "line 2: expected 10 fields"),
            # a duplicate is reported at its second row, before a later bad row
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "1998,1,T01,B,C,NA_SKATER,2,10,1.0,1.0",
              "1998,2,T01,C,C,NA_SKATER,3,-1,1.0,1.0"],
             "line 3: duplicate selection 1 in year 1998"),
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "1998,2,T01,C,C,NA_SKATER,3,-1,1.0,1.0",
              "1998,1,T01,B,C,NA_SKATER,2,10,1.0,1.0"],
             "line 3: gp7"),
            # a row past pick 210 is not validated, but it must parse
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "1998,211,T01,B,C,NA_SKATER,2,-1,,",
              "1998,212,T01,B,C,NA_SKATER,2,ten,,"],
             "line 4: unparseable integer field"),
            # blank lines count
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "", "", "1998,2,T01,B,C,NA_SKATER,2,10,,1.0"],
             "line 5: toi7: missing for a skater with NHL games"),
            # a row the csv module rejects is a bad row at its own line
            (["1998,1,T01,A,C,NA_SKATER,1,-5,,", "1998,2,T01," + "B" * 200_000 + ",C,NA_SKATER,2,10,1.0,1.0"],
             "line 2: gp7"),
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "1998,2,T01," + "B" * 200_000 + ",C,NA_SKATER,2,10,1.0,1.0"],
             "line 3: field larger than field limit"),
            # a duplicate pair past pick 210 is dropped, not reported
            (["1998,1,T01,A,C,NA_SKATER,1,10,1.0,1.0", "1998,211,T01,B,C,NA_SKATER,2,10,1.0,1.0",
              "1998,211,T01,C,C,NA_SKATER,3,10,1.0,1.0", "1998,2,T01,D,C,NA_SKATER,4,-1,1.0,1.0"],
             "line 5: gp7"),
            # a row is numbered by the line it starts on: a quoted line end
            # (\n, \r\n or \r) adds a line to its row, and blank lines count
            (['1998,1,T01,"P\nX",C,NA_SKATER,1,10,1.0,1.0', "1998,2,T01,B,C,NA_SKATER,2,10,1.0,1.0",
              "1998,3,T01,C,C,NA_SKATER,3,10,1.0,1.0", "1998,4,T01,D,C,NA_SKATER,4,10,1.0,1.0",
              "1998,0,T01,E,C,NA_SKATER,5,10,1.0,1.0"],
             "line 7: selection: must be >= 1, got 0"),
            (['1998,1,T01,"P\nX",C,NA_SKATER,1,10,1.0,1.0', "1998,x,T01,B,C,NA_SKATER,2,10,1.0,1.0"],
             "line 4: unparseable integer field"),
            (['1998,1,T01,"P\r\nX\rY",C,NA_SKATER,1,10,1.0,1.0', "", "1998,2,T01,B,C,NA_SKATER,2,-1,1.0,1.0"],
             "line 6: gp7"),
            (['1998,1,T01,"P\nX\nY",C,NA_SKATER,1,10,1.0,1.0', "",
              "1998,2,T01," + "B" * 200_000 + ",C,NA_SKATER,2,10,1.0,1.0"],
             "line 6: field larger than field limit"),
        ],
    )
    def test_first_bad_row_in_file_order(self, tmp_path, rows, message):
        with pytest.raises(DataError) as exc:
            load_draft_csv(write_csv(tmp_path, rows))
        assert str(exc.value).startswith(message)

    def test_first_bad_row_across_chunks(self, tmp_path):
        # the duplicate of pick 1 sits in the first chunk, the invalid row in a later one
        rows = [f"{1900 + i},1,T01,P,C,NA_SKATER,1,10,1.0,1.0" for i in range(3 * CHUNK_ROWS)]
        rows[5] = rows[0]
        rows[2 * CHUNK_ROWS] = "2999,1,T01,P,C,NA_SKATER,1,-1,1.0,1.0"
        with pytest.raises(DataError, match=f"^line 7: duplicate selection 1 in year 1900$"):
            load_draft_csv(write_csv(tmp_path, rows))
        rows[5] = "1905,1,T01,P,C,NA_SKATER,1,10,1.0,1.0"
        with pytest.raises(DataError, match=f"^line {2 * CHUNK_ROWS + 2}: gp7"):
            load_draft_csv(write_csv(tmp_path, rows))
        rows[2 * CHUNK_ROWS] = rows[0]
        with pytest.raises(DataError, match=f"^line {2 * CHUNK_ROWS + 2}: duplicate selection 1"):
            load_draft_csv(write_csv(tmp_path, rows))
        # a quoted line end in the first chunk moves every later row down a line
        rows[1] = '1901,1,T01,"P\nQ",C,NA_SKATER,1,10,1.0,1.0'
        with pytest.raises(DataError, match=f"^line {2 * CHUNK_ROWS + 3}: duplicate selection 1"):
            load_draft_csv(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("at", [BLOCK_CHUNKS * CHUNK_ROWS - 1, BLOCK_CHUNKS * CHUNK_ROWS + 1])
    def test_first_bad_row_across_a_block_boundary(self, tmp_path, at):
        # row ``at`` ends the first block of BLOCK_CHUNKS batches or is the
        # second row of the next; row i sits on line i + 2
        rows = [f"{1900 + i},1,T01,P,C,NA_SKATER,1,10,1.0,1.0" for i in range(2 * BLOCK_CHUNKS * CHUNK_ROWS)]
        rows[at] = "2999,1,T01,P,C,NA_SKATER,1,-1,1.0,1.0"
        with pytest.raises(DataError, match=f"^line {at + 2}: gp7"):
            load_draft_csv(write_csv(tmp_path, rows))
        rows[at] = rows[0]
        with pytest.raises(DataError, match=f"^line {at + 2}: duplicate selection 1 in year 1900$"):
            load_draft_csv(write_csv(tmp_path, rows))
        # a quoted line end in the last batch of the first block moves every later row down a line
        quoted = BLOCK_CHUNKS * CHUNK_ROWS - 2
        rows[quoted] = f'{1900 + quoted},1,T01,"P\nQ",C,NA_SKATER,1,10,1.0,1.0'
        line = at + 2 + (at > quoted)
        with pytest.raises(DataError, match=f"^line {line}: duplicate selection 1 in year 1900$"):
            load_draft_csv(write_csv(tmp_path, rows))

    def test_games_past_2_pow_53_kept_exactly(self, tmp_path):
        path = write_csv(tmp_path, ["1998,1,T01,A,C,NA_SKATER,1,9007199254740993,1.0,1.0"])
        (dc,) = load_draft_csv(path)
        gp7 = dc.columns.metrics[Metric.GP]
        assert gp7.dtype == np.int64 and int(gp7[0]) == 9007199254740993
        write_draft_csv(dc, tmp_path / "out.csv")
        assert ",9007199254740993," in (tmp_path / "out.csv").read_text(encoding="utf-8")

    def test_empty_file_errors(self, tmp_path):
        path = write_csv(tmp_path, [])
        with pytest.raises(DataError, match="no data rows"):
            load_draft_csv(path)

    def test_round_trip(self, tmp_path):
        classes = generate_synthetic_draft(SynthConfig(seed=6, years=2, picks_per_year=50))
        path = tmp_path / "out.csv"
        write_draft_csv(classes, path)
        reread = load_draft_csv(path)
        assert reread.years == classes.years and reread.bounds == classes.bounds
        want = arrays(classes.columns)
        for name, column in arrays(reread.columns).items():
            assert np.array_equal(column, want[name]), name


    def test_round_trip_over_several_blocks(self, tmp_path):
        # 4,200 rows: 33 batches, joined into 5 blocks
        draft = generate_synthetic_draft(SynthConfig(seed=0, years=20))
        path = tmp_path / "out.csv"
        write_draft_csv(draft, path)
        reread = load_draft_csv(path)
        assert -(-len(draft.columns.selection) // CHUNK_ROWS) == 33
        assert reread.years == draft.years and reread.bounds == draft.bounds
        for field in ("selection", "position", "team", "name", "category", "category_rank"):
            got, want = getattr(reread.columns, field), getattr(draft.columns, field)
            assert np.array_equal(got, want) and got.dtype == want.dtype, field
        for metric in Metric:
            got, want = reread.columns.metrics[metric], draft.columns.metrics[metric]
            assert np.array_equal(got, want) and got.dtype == want.dtype, metric

    def test_text_columns_are_utf8_bytes(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "1998,1,MTL,Ségolène,C,NA_SKATER,1,100,1500.0,5.0",
                "1998,2,Ørn,李明,D,NA_SKATER,2,0,,",
                "1998,3,T03,Al,G,NA_GOALIE,1,50,,2.0",
            ],
        )
        columns = load_draft_csv(path)[0].columns
        for column, texts in ((columns.team, ["MTL", "Ørn", "T03"]), (columns.name, ["Ségolène", "李明", "Al"])):
            encoded = [text.encode() for text in texts]
            assert column.dtype.kind == "S"
            assert column.itemsize == max(map(len, encoded)) > max(map(len, texts))
            assert column.tolist() == encoded

    def test_non_ascii_text_round_trips_byte_for_byte(self, tmp_path):
        # the bytes write_draft_csv gives: CRLF ends, a field quoted only
        # when it holds a comma or a quote
        rows = [
            ("1998", "1", "MTL", "Pierre-Édouard Bellemare", "C", "NA_SKATER", "1", "100", "1500.0", "5.0"),
            ("1998", "2", "Ørn", "Jääskeläinen, Jussi", "D", "EU_SKATER", "1", "40", "800.0", "-2.5"),
            ("1998", "3", "ÅIK", 'Dale "李" Smith', "G", "EU_GOALIE", "1", "50", "1000.0", "2.0"),
            ("1999", "1", "𝔸BC", "Zoë", "R", "UNRANKED", "", "0", "0.0", "-30.0"),
        ]
        original = tmp_path / "original.csv"
        with original.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([CSV_COLUMNS, *rows])
        assert '"Jääskeläinen, Jussi"' in original.read_text(encoding="utf-8")
        classes = load_draft_csv(original)
        assert [name.decode() for name in classes.columns.name.tolist()] == [row[3] for row in rows]
        written = tmp_path / "written.csv"
        write_draft_csv(classes, written)
        assert written.read_bytes() == original.read_bytes()

    def test_teams_csv_orders_non_ascii_codes_as_sorted_strings(self, tmp_path):
        # one-, two-, three- and four-byte UTF-8 codes: byte order is code point order
        labels = ["Ä", "Z", "é", "Ω", "a", "ß", "ｚ", "𝔸"]
        code = {b"T%02d" % (k + 1): label.encode() for k, label in enumerate(labels)}
        classes = [
            one_class(dc.years[0], replace(dc.columns, team=np.array([code[t] for t in dc.columns.team.tolist()])))
            for dc in generate_synthetic_draft(SynthConfig(seed=3, years=2, teams=len(labels)))
        ]
        path = tmp_path / "draft.csv"
        write_draft_csv(Draft(classes), path)
        assert main(["teams", str(path), "--out", str(tmp_path / "out")]) == 0
        with (tmp_path / "out" / "teams.csv").open(newline="", encoding="utf-8") as fh:
            teams = [row["team"] for row in csv.DictReader(fh)]
        assert teams == sorted(labels)


_SHUFFLE_CLASSES = generate_synthetic_draft(SynthConfig(seed=7, years=3, picks_per_year=100))


@given(order=st.permutations(range(300)), blanks=st.lists(st.integers(0, 300), max_size=6))
@settings(max_examples=25, deadline=None)
def test_row_order_and_blank_lines_do_not_change_the_classes(order, blanks):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "draft.csv"
        write_draft_csv(_SHUFFLE_CLASSES, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [rows[i] for i in order]  # 300 rows span two chunks
        for at in sorted(blanks, reverse=True):
            rows.insert(at, "")
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        loaded = load_draft_csv(path)
    assert [dc.years for dc in loaded] == [dc.years for dc in _SHUFFLE_CLASSES]
    for got, want in zip(loaded, _SHUFFLE_CLASSES):
        for field in ("selection", "position", "team", "name", "category", "category_rank"):
            assert np.array_equal(getattr(got.columns, field), getattr(want.columns, field)), field
        for metric in Metric:
            assert np.array_equal(got.columns.metrics[metric], want.columns.metrics[metric]), metric
            assert got.columns.metrics[metric].dtype == want.columns.metrics[metric].dtype


class TestConfigFile:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg.loess_span == 0.5
        assert cfg.dollars.salary_per_game == 29300.0

    def test_overrides(self):
        text = """
        # analysis tweaks
        loess.span = 0.4
        cescin.na_skater = 1.25
        dollars.salary_per_game = 30000
        dollars.dollars_per_goal = 250000
        dollars.minutes_per_game = 18.5
        dollars.picks_per_season = 9
        split.early = 1998-1999
        split.late = 2000,2002
        metrics = toi,gp
        by_position = true
        """
        cfg = parse_config_text(text)
        assert cfg.loess_span == 0.4
        assert cfg.factors == {"na_skater": 1.25}
        assert cfg.dollars == DollarConstants(30000.0, 250000.0, 18.5, 9)
        assert cfg.split_early == range(1998, 2000)
        assert cfg.split_late == (2000, 2002)
        assert cfg.metrics == (Metric.TOI, Metric.GP)
        assert cfg.by_position

    def test_readme_config_block_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```\n")[1]
        documented = [line.split("=")[0].strip() for line in block.splitlines()]
        # the keys below set these fields; a new field needs its key here and in the README
        assert [f.name for f in fields(RunConfig)] == [
            "loess_span", "factors", "dollars", "imputation", "split_early", "split_late",
            "metrics", "by_position",
        ]
        accepted = {
            "loess.span", "split.early", "split.late", "metrics", "by_position",
            *(f"cescin.{c.value.lower()}" for c in FACTOR_CATEGORIES),
            *(f"dollars.{f.name}" for f in fields(DollarConstants)),
            *(f"impute.{f.name}" for f in fields(ImputationConfig)),
        }
        assert len(accepted) == 15 and sorted(documented) == sorted(accepted)
        cfg = parse_config_text(block)
        assert set(cfg.factors) == {c.value.lower() for c in FACTOR_CATEGORIES}
        assert replace(cfg, factors={}) == RunConfig()

    def test_wide_year_range_parses_in_little_memory(self):
        # two wide disjoint halves: neither the parse nor the overlap check lists their years
        tracemalloc.start()
        try:
            cfg = parse_config_text("split.early = 1998-1001998\nsplit.late = 1001999-2001999")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(cfg.split_early) == 1_000_001
        assert 1001998 in cfg.split_early and 1001999 not in cfg.split_early

    @pytest.mark.parametrize(
        "text, year",
        [
            ("split.early = 1998-2002\nsplit.late = 1998-2002", 1998),
            ("split.early = 1998-1001998\nsplit.late = 1001998-2001998", 1001998),
            ("split.late = 2000", 2000),
            ("split.early = 2003,2001", 2001),
        ],
    )
    def test_split_halves_that_share_a_year_rejected(self, text, year):
        with pytest.raises(ValueError, match=f"must not share a year, both name {year}$"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("loess.spam = 0.4")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("loess.span 0.4")

    def test_unknown_factor_name_rejected(self):
        assert RunConfig(factors={"eu_goalie": 2.0}).factors == {"eu_goalie": 2.0}
        with pytest.raises(ValueError, match="na_skatr"):
            RunConfig(factors={"na_skatr": 2.0})
        with pytest.raises(ValueError, match="unknown key 'cescin.na_skatr'"):
            parse_config_text("cescin.na_skatr = 2.0")


class TestCli:
    def test_synth_then_run(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--seed", "3", "--years", "2", "--out", str(out)]) == 0
        csv_path = out / "synthetic.csv"
        assert csv_path.exists()

        run_out = tmp_path / "run"
        assert main(["run", str(csv_path), "--out", str(run_out)]) == 0
        for name in ("audit.json", "gains.json", "chart.csv", "teams.csv", "cescin.json"):
            assert (run_out / name).exists()
        assert list((run_out / "curves").glob("expected_*.csv"))

    def test_ingest_check_reports_years(self, tmp_path, capsys):
        out = tmp_path / "s"
        main(["synth", "--seed", "1", "--years", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["ingest-check", str(out / "synthetic.csv"), "--out", str(out)]) == 0
        assert "year 1998: 210 records" in capsys.readouterr().out

    def test_chart_subcommand(self, tmp_path):
        out = tmp_path / "s"
        main(["synth", "--seed", "2", "--years", "1", "--out", str(out)])
        assert main(["chart", str(out / "synthetic.csv"), "--out", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c" / "chart.csv").read_text().strip().splitlines()
        assert lines[0] == "selection,value"
        assert len(lines) == 211
        assert lines[1].split(",") == ["1", "1000"]

    def test_reference_chart_output(self, capsys):
        assert main(["reference-chart"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1,1000"
        assert lines[-1] == "210,25"

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    def test_bad_data_exit_code(self, tmp_path, capsys):
        path = write_csv(
            tmp_path,
            [
                "1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0",
                "1998,1,T02,Bravo,C,NA_SKATER,2,10,150.0,0.5",
            ],
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # two players cannot support a smoother: numeric stage failure
        path = write_csv(
            tmp_path,
            [
                "1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0",
                "1998,2,T02,Bravo,C,NA_SKATER,2,10,150.0,0.5",
            ],
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_never_played_draft(self, tmp_path, capsys):
        # every TOI and GP is 0 and every GVT the imputed -30
        rows = [
            f"{y},{s},T{s % 6:02d},P{s},C,NA_SKATER,{s},0,," for y in (1998, 1999) for s in range(1, 31)
        ]
        path, out = write_csv(tmp_path, rows), tmp_path / "o"
        assert main(["chart", str(path), "--out", str(out)]) == 3
        assert "pipeline error: stage chart: non-positive top value" in capsys.readouterr().err
        assert main(["teams", str(path), "--out", str(out)]) == 0
        normality = json.loads((out / "team_tests.json").read_text(encoding="utf-8"))["normality"]
        for metric in ("toi", "gp"):
            assert normality[metric] == {"error": "degenerate sample: zero variance"}

    def test_metric_flag_restricts_outputs(self, tmp_path):
        out = tmp_path / "s"
        main(["synth", "--seed", "4", "--years", "1", "--out", str(out)])
        run_out = tmp_path / "m"
        assert (
            main(["surplus", str(out / "synthetic.csv"), "--metric", "gp", "--out", str(run_out)])
            == 0
        )
        gains = (run_out / "gains.json").read_text()
        assert '"gp"' in gains and '"toi"' not in gains

    def test_env_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DRAFTVAL_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "5", "--years", "1"]) == 0
        assert (tmp_path / "envout" / "synthetic.csv").exists()

    def test_env_default_out_dir_read_at_each_call(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process; the default must still follow the environment
        monkeypatch.chdir(tmp_path)
        for name in ("first", "second"):
            monkeypatch.setenv("DRAFTVAL_OUT", str(tmp_path / name))
            assert main(["synth", "--seed", "5", "--years", "1"]) == 0
        assert (tmp_path / "first" / "synthetic.csv").is_file()
        assert (tmp_path / "second" / "synthetic.csv").is_file()
        monkeypatch.delenv("DRAFTVAL_OUT")
        assert main(["synth", "--seed", "5", "--years", "1"]) == 0
        assert (tmp_path / "out" / "synthetic.csv").is_file()

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        assert main(["synth", "--seed", "5", "--years", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["curves", str(tmp_path / "synthetic.csv"), "--metric", "xp"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "line",
        [
            "loess.span = abc",
            "metrics = foo",
            "bogus.key = 1",
            "loess.span = 5",
            "audit.band_edge = -5",
            "impute.never_played_gvt = nan",
            "impute.goalie_minutes_per_game = -1",
            "metrics = ,",
            "cescin.na_skater = 0",
            "dollars.salary_per_game = nan",
            "split.early = 2000-1990",
            "split.late = ,",
            "split.early = 1998-2002\nsplit.late = 1998-2002",
            "by_position = on",
            "metrics = toi, toi",
            None,  # no config file at the given path
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, line):
        out = tmp_path / "s"
        main(["synth", "--seed", "1", "--years", "1", "--out", str(out)])
        config = tmp_path / "bad.cfg"
        if line is not None:
            config.write_text(line + "\n", encoding="utf-8")
        argv = ["cescin", str(out / "synthetic.csv"), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (HEADER + "\n1998,1,T01,Alpha,C,NA_SKATER,1,100,nan,5.0\n", "line 2: toi7: must be finite"),
            (HEADER + "\n1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,inf\n", "line 2: gvt7: must be finite"),
            (HEADER + "\n1998,1,T01,Alpha,C,NA_SKATER,3.5,100,1500.0,5.0\n", "line 2: unparseable integer"),
            (HEADER + "\n1998,1,T01,Alpha,C\n", "line 2: expected 10 fields"),
            (
                HEADER + "\n1998,1,T01,Alpha,C,NA_SKATER,99999999999999999999,100,1500.0,5.0\n",
                "line 2: css_category_rank: integer out of the 64-bit range",
            ),
            (
                HEADER + "\n1998,1,T01," + "A" * 200_000 + ",C,NA_SKATER,1,100,1500.0,5.0\n",
                "line 2: field larger than field limit",
            ),
            (
                (HEADER + "\n1998,1,T01,Alpha,C,NA_SKATER,1,100,1500.0,5.0\n").encode() + b"\xff\xfe\n",
                "not UTF-8 text",
            ),
            (None, "draft.csv: "),  # a directory
            ("", "empty file, missing header"),
            ("x" * 131_073 + "\n", "line 1: field larger than field limit"),
        ],
        ids=[
            "nan", "inf", "fractional-rank", "short-row", "rank-past-int64", "field-too-long",
            "not-utf8", "directory", "empty", "header-field-too-long",
        ],
    )
    def test_bad_input_exit_code(self, tmp_path, capsys, content, message):
        path = tmp_path / "draft.csv"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--config", "x.cfg"],
            ["synth", "--metric", "gp"],
            ["synth", "--by-position"],
            *([command, "--metric", "gp"] for command in ("ingest-check", "cescin", "chart")),
            *([command, "--by-position"]
              for command in ("ingest-check", "cescin", "audit", "curves", "teams", "chart")),
        ],
        ids=" ".join,
    )
    def test_flag_the_subcommand_does_not_read_exit_code(self, tmp_path, capsys, argv):
        main(["synth", "--seed", "1", "--years", "1", "--out", str(tmp_path)])
        if argv[0] != "synth":
            argv = [argv[0], str(tmp_path / "synthetic.csv"), *argv[1:]]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_seed_needs_no_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--seed", "0", "--metric", "gp", "--out", str(out)]) == 0
        assert (out / "chart.csv").is_file()
        assert main(["run", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
    def test_run_with_data_and_seed_exit_code(self, tmp_path, capsys, exists):
        data = tmp_path / "draft.csv"
        if exists:
            main(["synth", "--seed", "1", "--years", "1", "--out", str(tmp_path)])
            (tmp_path / "synthetic.csv").rename(data)
            capsys.readouterr()
        assert main(["run", str(data), "--seed", "1", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["run", "--seed", "0", "--out", str(taken)]) == 1
        assert main(["synth", "--out", str(taken / "sub")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: --out") for line in err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--picks", "1"],
            ["synth", "--picks", "300"],
            ["synth", "--years", "0"],
            ["synth", "--teams", "0"],
            ["synth", "--seed", "-1"],
            ["run", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_synthetic_flag_exit_code(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and argv[1] in err[0]
        assert not (tmp_path / "o").exists()

    def test_synthetic_csv_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "synthetic.csv").mkdir()  # a directory where the file goes
        assert main(["synth", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {tmp_path}: cannot write")

    @pytest.mark.parametrize("command, artifact", [("curves", "curves"), ("chart", "chart.csv")])
    def test_artifact_cannot_be_written(self, tmp_path, capsys, command, artifact):
        main(["synth", "--seed", "1", "--years", "1", "--out", str(tmp_path)])
        out = tmp_path / "o"
        out.mkdir()
        if command == "curves":
            (out / artifact).write_text("", encoding="utf-8")  # a file where a directory goes
        else:
            (out / artifact).mkdir()  # a directory where a file goes
        assert main([command, str(tmp_path / "synthetic.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out")

    def test_seeded_run_honours_imputation_config(self, tmp_path):
        config = tmp_path / "impute.cfg"
        config.write_text("impute.never_played_gvt = -90\n", encoding="utf-8")
        curves = []
        for name, extra in (("default", []), ("imputed", ["--config", str(config)])):
            out = tmp_path / name
            argv = ["run", "--seed", "0", "--metric", "gvt", "--out", str(out), *extra]
            assert main(argv) == 0
            curves.append((out / "curves" / "expected_gvt_css.csv").read_text())
        assert curves[0] != curves[1]


# fields a fuzzed row draws from: valid values, out-of-range and past-int64
# integers, non-finite and malformed numbers, unknown codes and free text
_FUZZ_FIELD = st.one_of(
    st.integers(-3, 215).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "C", "g", "D", "X", "NA_SKATER", "eu_goalie", "UNRANKED", "1998"]),
    st.text(max_size=6),
)
_FUZZ_ROW = st.one_of(
    st.tuples(
        st.sampled_from(["1998", "1999"]),
        st.sampled_from(["1", "2", "3", "211"]),  # few slots: duplicates are common
        st.just("T01"),
        st.just("Name"),
        st.sampled_from(["C", "D", "G"]),
        st.sampled_from(["NA_SKATER", "EU_SKATER", "NA_GOALIE", "UNRANKED"]),
        st.sampled_from(["", "1", "2"]),
        st.sampled_from(["0", "1", "50"]),
        st.sampled_from(["", "100.0"]),
        st.sampled_from(["", "-3.5"]),
    ).map(list),
    st.lists(_FUZZ_FIELD, min_size=9, max_size=11),
    st.just([]),  # a blank line
)


@given(
    rows=st.lists(_FUZZ_ROW, max_size=8),
    mutations=st.lists(st.tuples(st.integers(0, 9), _FUZZ_FIELD), max_size=3),
    tail=st.binary(max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_csv_exits_0_or_2_without_traceback(rows, mutations, tail):
    rows = [list(r) for r in rows]
    for i, (col, value) in enumerate(mutations):
        if rows and len(rows[i % len(rows)]) > col:
            rows[i % len(rows)][col] = value
    body = HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    content = body.encode("utf-8", errors="surrogatepass") + tail
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "draft.csv"
        path.write_bytes(content)
        try:
            load_draft_csv(path)
        except DataError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest-check", str(path), "--out", tmp])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Imports draftvalue.cli, then runs each data subcommand and prints its exit
# code and the modules it loaded.
_LOADS_SCRIPT = """
import contextlib, io, sys
import draftvalue.cli as cli
csv, out = sys.argv[1:]
for argv in (["run", "--by-position"], ["ingest-check"], ["cescin"], ["audit"],
             ["curves"], ["surplus"], ["teams"], ["chart"]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([argv[0], csv, *argv[1:], "--out", out])
    print(argv[0], code, *sorted(set(sys.modules) - before))
"""


def test_analysis_loads_no_module(tmp_path):
    # a module first imported inside an analysis is paid, in time and in the
    # traced peak, by the analysis: np.unique, for one, imports numpy.ma
    csv_path = tmp_path / "draft.csv"
    config = SynthConfig(seed=4, years=5, picks_per_year=60, teams=8)
    write_draft_csv(generate_synthetic_draft(config), csv_path)
    src = str(Path(draftvalue.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS_SCRIPT, str(csv_path), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    commands = ("run", "ingest-check", "cescin", "audit", "curves", "surplus", "teams", "chart")
    assert proc.stdout.splitlines() == [f"{name} 0" for name in commands]
