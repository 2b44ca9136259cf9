import ast
import dataclasses
import filecmp
import importlib
import inspect
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracomp import tagger
from paracomp.cli import _config_from_args, build_parser, main
from paracomp.config import Config, build_config, parse_config_file
from paracomp.corpus_io import read_predictions
from paracomp.pipeline import StageError, run_pipeline
from paracomp.synth import generate_language

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


@pytest.fixture(scope="module")
def lang_paths(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("lang")
    lang = generate_language(slots=3, lemmas=8, classes=2, tokens=2500, seed=3)
    corpus_path, lexicon_path, gold_path = lang.write(str(out_dir))
    return {
        "corpus": corpus_path,
        "lemmas": lexicon_path,
        "gold": gold_path,
        "lexicon": lang.lexicon,
        "gold_table": lang.gold,
        "tokens": lang.token_count,
    }


class TestConfig:
    def test_defaults_validate(self):
        config = Config()
        config.validate()
        assert config.mode == "pcs-i"
        assert config.baseline_slots == 48
        assert config.bootstrap_rounds == 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "nope"}, "unknown mode"),
            ({"candidate_ratio": 1.0}, "candidate_ratio"),
            ({"lemma_decay": 0.0}, "lemma_decay"),
            ({"merge_threshold": 1.5}, "merge_threshold"),
            ({"context_window": 2}, "context_window"),
            ({"bootstrap_rounds": -1}, "bootstrap_rounds"),
            ({"hmm_states": 0}, "hmm_states"),
            ({"hmm_iterations": -1}, "hmm_iterations"),
            ({"unk_threshold": -1}, "unk_threshold"),
            ({"seed": -1}, "seed"),
            ({"baseline_slots": 0}, "baseline_slots"),
            ({"shots": 0}, "shots"),
        ],
    )
    def test_validation_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Config(**kwargs).validate()

    @pytest.mark.parametrize(
        "name", ["tree_support_factor", "lemma_evidence_factor"]
    )
    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_factor_errors(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got {value}"):
            Config(**{name: value}).validate()
        Config(**{name: 0.0}).validate()

    def test_wide_window_configs_validate_and_run(self, lang_paths):
        # Slot vectors span only the tag windows that occur, so neither
        # the state count nor the window length is capped.
        Config(hmm_states=17, context_window=5).validate()
        config = Config(
            mode="pcs-ii+iii", hmm_states=8, context_window=7, hmm_iterations=10
        )
        config.validate()
        result = run_pipeline(
            config,
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
        )
        assert result.slots
        assert result.slot_count == len(result.slots)
        assert result.scores is not None

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "candidate_ratio = 0.6\n"
            "hmm_states = 5  # trailing comment\n"
            "baseline_truth = yes\n"
            "mode = lb\n",
            encoding="utf-8",
        )
        values = parse_config_file(str(path))
        assert values == {
            "candidate_ratio": 0.6,
            "hmm_states": 5,
            "baseline_truth": True,
            "mode": "lb",
        }

    def test_parse_config_file_errors(self, tmp_path):
        bad_key = tmp_path / "bad_key.cfg"
        bad_key.write_text("no_such_option = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: unknown key"):
            parse_config_file(str(bad_key))
        bad_value = tmp_path / "bad_value.cfg"
        bad_value.write_text("seed = 1\nhmm_states = many\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(str(bad_value))
        bad_bool = tmp_path / "bad_bool.cfg"
        bad_bool.write_text("baseline_truth = maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="boolean"):
            parse_config_file(str(bad_bool))
        no_equals = tmp_path / "no_equals.cfg"
        no_equals.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(str(no_equals))

    def test_parse_config_file_rejects_workers(self, tmp_path):
        # A stale workers line must fail loudly, not be silently ignored.
        path = tmp_path / "workers.cfg"
        path.write_text("seed = 1\nworkers = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: unknown key 'workers'"):
            parse_config_file(str(path))

    def test_build_config_precedence(self):
        config = build_config(
            {"seed": 5, "hmm_states": 4}, {"seed": 9, "mode": "lb"}
        )
        assert config.seed == 9
        assert config.hmm_states == 4
        assert config.mode == "lb"
        assert config.candidate_ratio == 0.5

    def test_build_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config({"bogus": 1})

    def test_readme_configuration_table_matches_fields(self):
        # Every option is documented with its default, and every documented
        # option exists.
        with open(README, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("### Configuration", 1)[1].split("\n###", 1)[0]
        rows = dict(re.findall(r"^\| `(\w+)` *\| *([^ |]+) *\|", section, re.M))
        defaults = {
            field.name: str(field.default).lower()
            for field in dataclasses.fields(Config) if field.name != "mode"
        }
        assert rows == defaults

    def test_readme_library_signatures_match_the_code(self):
        # Every name(...) quoted under "Library use" is the signature of
        # the object it names, annotations and whitespace aside.
        with open(README, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        quoted = re.findall(r"`([\w.]+)(\([^`]*\))`", section)
        assert quoted
        for name, documented in quoted:
            module, _, attr = name.rpartition(".")
            owner = importlib.import_module(f"paracomp.{module}".rstrip("."))
            signature = inspect.signature(getattr(owner, attr))
            bare = signature.replace(
                parameters=[
                    p.replace(annotation=p.empty)
                    for p in signature.parameters.values()
                ],
                return_annotation=signature.empty,
            )
            assert re.sub(r"\s", "", documented) == re.sub(r"\s", "", str(bare)), name


def test_readme_names_every_oracle_file():
    # The README's test section lists each kept oracle, and only those.
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`tests/(\w+_oracle\.py)`", section))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    present = {name for name in os.listdir(tests_dir) if name.endswith("_oracle.py")}
    assert named == present


def test_paracomp_imports_no_oracle():
    # The oracles are test references; the package must run without them.
    package = os.path.join(os.path.dirname(README), "src", "paracomp")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.append(node.module)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [alias.name for alias in node.names]
        assert not [m for m in imported if m.split(".")[-1].endswith("_oracle")], name


class TestTreeModes:
    def test_tree_census_mode(self, lang_paths):
        result = run_pipeline(
            Config(mode="pcs-i"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        # Identity plus one suffix tree per (inflected slot, class).
        assert len(result.trees) == 5
        assert result.slot_count == 5
        assert sorted(result.predictions) == sorted(lang_paths["lexicon"])
        for row in result.predictions.values():
            assert sorted(row) == [1, 2, 3, 4, 5]
        assert [name for name, _ in result.timings] == [
            "load", "discover", "generate",
        ]
        assert "mode: pcs-i" in result.report
        assert "retained trees: 5" in result.report
        # Every tree built clears the support floor of 2.
        assert sorted(result.census.weights, key=str) == sorted(result.trees, key=str)
        assert "retained trees: 5 of 5 built, support cutoff 2.00\n" in result.report

    @pytest.mark.parametrize("mode", ["pcs-i", "pcs-ii+iii"])
    def test_report_names_the_cutoff_when_no_tree_is_retained(self, tmp_path, mode):
        # Each of the three trees walk -> walked, walk -> walks and the
        # identity has support 1, under the floor of 2.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("walk walked\nwalks\n", encoding="utf-8")
        lexicon = tmp_path / "lemmas.txt"
        lexicon.write_text("walk\n", encoding="utf-8")
        result = run_pipeline(
            Config(mode=mode), corpus_path=str(corpus), lexicon_path=str(lexicon)
        )
        assert result.trees == []
        assert "retained trees: 0 of 3 built, support cutoff 2.00\n" in result.report

    def test_tree_mode_scoring(self, lang_paths, tmp_path):
        out = tmp_path / "pred.tsv"
        result = run_pipeline(
            Config(mode="pcs-i"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
            out_path=str(out),
        )
        # 3 gold slots vs 5 predicted: identity matches fully, each
        # suffix tree covers its own class (half the lemmas).
        assert result.scores is not None
        assert result.scores.gold_slots == 3
        assert result.scores.predicted_slots == 5
        assert result.scores.macro == pytest.approx(2.0 / 5)
        assert result.scores.micro == pytest.approx(0.4)
        assert [name for name, _ in result.timings] == [
            "load-gold", "load", "discover", "generate", "score", "write",
        ]
        assert "[scores]" in result.report
        assert "bmacc macro: 40.00 (5)" in result.report
        assert "bmacc micro: 40.00 (5)" in result.report
        assert result.report.endswith("\n")
        assert read_predictions(str(out)) == result.predictions

    def test_bootstrap_round_mode_keeps_seed_rows(self, lang_paths):
        result = run_pipeline(
            Config(mode="pcs-ii-a"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        # Nothing new is discoverable in this language, so one retrieval
        # round changes nothing.
        assert len(result.lexicon) == 8
        assert len(result.trees) == 5
        assert sorted(result.predictions) == sorted(lang_paths["lexicon"])


class TestFullModes:
    def test_full_pipeline_shapes(self, lang_paths):
        result = run_pipeline(
            Config(mode="pcs-ii+iii", hmm_iterations=10),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
        )
        assert result.model is not None
        assert len(result.tags) == lang_paths["tokens"]
        assert result.slots
        assert result.slot_count == len(result.slots)
        assert result.rules is not None
        for lemma in lang_paths["lexicon"]:
            row = result.predictions[lemma]
            assert sorted(row) == list(range(1, result.slot_count + 1))
        assert result.scores is not None
        assert "[scores]" in result.report
        stage_names = [name for name, _ in result.timings]
        assert stage_names == [
            "load-gold", "load", "discover", "tag", "cluster",
            "generate", "score",
        ]

    @pytest.mark.parametrize("mode", ["pcs-iii", "pcs-ii+iii"])
    def test_report_counts_windowed_tokens(self, lang_paths, mode):
        # Every sentence of this language has 3 tokens: a 3-tag window
        # fits around the middle token only, a 5-tag window nowhere.
        tokens = lang_paths["tokens"]
        runs = {
            window: run_pipeline(
                Config(mode=mode, context_window=window, hmm_iterations=5),
                corpus_path=lang_paths["corpus"],
                lexicon_path=lang_paths["lemmas"],
            )
            for window in (3, 5)
        }
        assert runs[3].windowed_tokens == tokens // 3
        assert f"windowed tokens: {tokens // 3} of {tokens}\n" in runs[3].report
        assert "warning:" not in runs[3].report
        assert runs[5].windowed_tokens == 0
        assert f"windowed tokens: 0 of {tokens}\n" in runs[5].report
        assert (
            "warning: no sentence holds a full 5-tag window" in runs[5].report
        )

    def test_report_counts_em_passes(self, lang_paths):
        result = run_pipeline(
            Config(mode="pcs-ii+iii", hmm_states=4, hmm_iterations=30),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        ll = result.model.log_likelihoods
        assert 0 < len(ll) < 30  # EM stopped before the cap
        line = f"EM passes: {len(ll)} of at most 30, final log-likelihood {ll[-1]:.4f}\n"
        assert line in result.report
        unfitted = run_pipeline(
            Config(mode="pcs-iii", hmm_iterations=0),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        assert "EM passes: 0 of at most 0\n" in unfitted.report

    def test_report_names_the_states_fit_from_anchors(self, lang_paths):
        # This language has anchors for 7 states, one fewer than asked for.
        result = run_pipeline(
            Config(mode="pcs-ii+iii"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        assert result.model.states == 7
        line = "tagger: 7 states from anchors (8 requested), EM passes: 0 of at most 0\n"
        assert line in result.report

    def test_few_anchors_fit_fewer_states_whatever_the_seed(
        self, lang_paths, tmp_path
    ):
        # With fewer anchors than states the tagger fits fewer states
        # rather than drawing a random start, so the seed moves nothing.
        outputs = set()
        for seed in range(4):
            out = tmp_path / f"pred-{seed}.tsv"
            result = run_pipeline(
                Config(mode="pcs-ii+iii", seed=seed),
                corpus_path=lang_paths["corpus"],
                lexicon_path=lang_paths["lemmas"],
                gold_path=lang_paths["gold"],
                out_path=str(out),
            )
            assert result.scores.macro == 1.0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_default_tagger_never_bands_the_corpus(self, lang_paths, monkeypatch):
        # No Baum-Welch pass runs, and Viterbi on the anchor fit's uniform
        # chain is a per-token lookup, so the corpus is never banded.
        def refuse(*args):
            raise AssertionError("the corpus was banded")

        monkeypatch.setattr(tagger, "_batches", refuse)
        result = run_pipeline(
            Config(mode="pcs-ii+iii"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        assert len(result.tags) == lang_paths["tokens"]

    @pytest.mark.parametrize("mode", ["pcs-iii", "pcs-ii+iii"])
    def test_one_token_corpus_runs(self, tmp_path, mode):
        # Only Baum-Welch needs two tokens, and the default runs no pass.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("walked\n", encoding="utf-8")
        lexicon = tmp_path / "lemmas.txt"
        lexicon.write_text("walk\n", encoding="utf-8")
        result = run_pipeline(
            Config(mode=mode), corpus_path=str(corpus), lexicon_path=str(lexicon)
        )
        assert result.slot_count == 0
        assert result.model.states == 1
        assert "warning: no sentence holds a full 3-tag window" in result.report
        corpus.write_text("\n", encoding="utf-8")
        with pytest.raises(StageError, match="stage 'tag' failed: corpus is empty"):
            run_pipeline(
                Config(mode=mode), corpus_path=str(corpus), lexicon_path=str(lexicon)
            )

    def test_tree_modes_report_no_windows(self, lang_paths):
        result = run_pipeline(
            Config(mode="pcs-i"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        assert result.windowed_tokens is None
        assert "windowed tokens" not in result.report
        assert "EM passes" not in result.report

    def test_clustering_mode_equals_zero_round_full_mode(
        self, lang_paths, tmp_path
    ):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        run_pipeline(
            Config(mode="pcs-iii", hmm_iterations=10),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            out_path=str(out_a),
        )
        run_pipeline(
            Config(mode="pcs-ii+iii", bootstrap_rounds=0, hmm_iterations=10),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            out_path=str(out_b),
        )
        assert filecmp.cmp(str(out_a), str(out_b), shallow=False)


class TestOtherModes:
    def test_lemma_baseline_mode(self, lang_paths):
        result = run_pipeline(
            Config(mode="lb", baseline_slots=5),
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
        )
        assert result.slot_count == 5
        for lemma in lang_paths["lexicon"]:
            assert result.predictions[lemma] == {
                slot: lemma for slot in range(1, 6)
            }
        # All baseline columns are identical, so scoring sees one.
        assert result.scores.predicted_slots == 1

    def test_lemma_baseline_sized_from_gold(self, lang_paths):
        result = run_pipeline(
            Config(mode="lb", baseline_truth=True),
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
        )
        assert result.slot_count == 3

    def test_lemma_baseline_truth_needs_gold(self, lang_paths):
        with pytest.raises(StageError) as info:
            run_pipeline(
                Config(mode="lb", baseline_truth=True),
                lexicon_path=lang_paths["lemmas"],
            )
        assert info.value.stage == "baseline"

    def test_supervised_skyline_mode(self, lang_paths):
        result = run_pipeline(
            Config(mode="conll17-k", shots=2),
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
        )
        assert result.slot_count == 3
        assert result.rules is not None
        for lemma in lang_paths["lexicon"]:
            row = result.predictions[lemma]
            assert sorted(row) == [1, 2, 3]
            # Slot id 1 is the sorted-first label "slot1", the bare stem.
            assert row[1] == lemma
        assert result.scores is not None

    def test_supervised_skyline_needs_enough_paradigms(self, lang_paths):
        with pytest.raises(StageError) as info:
            run_pipeline(
                Config(mode="conll17-k", shots=99),
                lexicon_path=lang_paths["lemmas"],
                gold_path=lang_paths["gold"],
            )
        assert info.value.stage == "sample"

    def test_supervised_skyline_keeps_a_slot_without_rules(self, tmp_path):
        # Seed 1 samples "go", whose PST form "went" shares no substring
        # with it: the slot learns no rule and copies the lemma.
        lemmas = tmp_path / "lemmas.txt"
        lemmas.write_text("go\nwalk\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "go\tgoes\tPRS\ngo\twent\tPST\n"
            "walk\twalks\tPRS\nwalk\twalked\tPST\n",
            encoding="utf-8",
        )
        result = run_pipeline(
            Config(mode="conll17-k", shots=1, seed=1),
            lexicon_path=str(lemmas),
            gold_path=str(gold),
        )
        assert "predicted slots: 2\n" in result.report
        assert result.slot_count == 2
        pst = {lemma: row[2] for lemma, row in result.predictions.items()}
        assert pst == {"go": "go", "walk": "walk"}

    def test_eval_mode_round_trip(self, lang_paths, tmp_path):
        out = tmp_path / "pred.tsv"
        first = run_pipeline(
            Config(mode="pcs-i"),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
            gold_path=lang_paths["gold"],
            out_path=str(out),
        )
        second = run_pipeline(
            Config(mode="eval"),
            gold_path=lang_paths["gold"],
            predictions_path=str(out),
        )
        assert second.scores.macro == first.scores.macro
        assert second.scores.micro == first.scores.micro
        assert second.slot_count == 5

    def test_eval_mode_needs_inputs(self, lang_paths, tmp_path):
        with pytest.raises(StageError) as info:
            run_pipeline(Config(mode="eval"), predictions_path="x.tsv")
        assert info.value.stage == "load-gold"
        with pytest.raises(StageError) as info:
            run_pipeline(Config(mode="eval"), gold_path=lang_paths["gold"])
        assert info.value.stage == "load-predictions"


class TestStageErrors:
    def test_missing_corpus_names_the_load_stage(self, lang_paths):
        with pytest.raises(StageError) as info:
            run_pipeline(
                Config(mode="pcs-i"),
                corpus_path="/nonexistent/corpus.txt",
                lexicon_path=lang_paths["lemmas"],
            )
        assert info.value.stage == "load"
        assert str(info.value).startswith("stage 'load' failed:")

    def test_bad_gold_names_its_stage(self, lang_paths, tmp_path):
        bad = tmp_path / "bad_gold.tsv"
        bad.write_text("walk\twalked\tpast\nwalk\twalkt\tpast\n", encoding="utf-8")
        with pytest.raises(StageError) as info:
            run_pipeline(
                Config(mode="pcs-i"),
                corpus_path=lang_paths["corpus"],
                lexicon_path=lang_paths["lemmas"],
                gold_path=str(bad),
            )
        assert info.value.stage == "load-gold"

    @pytest.mark.parametrize(
        "config, given, stage, message",
        [
            ({"mode": "pcs-i"}, ["lemmas"], "load", "pcs-i mode needs a corpus file"),
            (
                {"mode": "pcs-ii+iii"},
                ["lemmas"],
                "load",
                "pcs-ii+iii mode needs a corpus file",
            ),
            ({"mode": "pcs-i"}, ["corpus"], "load", "pcs-i mode needs a lemma file"),
            ({"mode": "lb"}, [], "load", "lb mode needs a lemma file"),
            (
                {"mode": "lb", "baseline_truth": True},
                ["lemmas"],
                "baseline",
                "baseline_truth needs a gold table",
            ),
            (
                {"mode": "conll17-k"},
                ["gold"],
                "load",
                "conll17-k mode needs a lemma file",
            ),
            (
                {"mode": "conll17-k"},
                ["lemmas"],
                "load-gold",
                "conll17-k mode needs a gold table",
            ),
            (
                {"mode": "eval"},
                ["predictions"],
                "load-gold",
                "eval mode needs a gold table",
            ),
            (
                {"mode": "eval"},
                ["gold"],
                "load-predictions",
                "eval mode needs a prediction file",
            ),
        ],
    )
    def test_missing_input_is_named_in_its_stage(
        self, lang_paths, config, given, stage, message
    ):
        arguments = {
            "corpus": "corpus_path",
            "lemmas": "lexicon_path",
            "gold": "gold_path",
            "predictions": "predictions_path",
        }
        paths = {arguments[name]: lang_paths.get(name, "x.tsv") for name in given}
        with pytest.raises(StageError) as info:
            run_pipeline(Config(**config), **paths)
        assert info.value.stage == stage
        assert str(info.value) == f"stage '{stage}' failed: {message}"

    def test_cli_reports_a_missing_input(self, capsys):
        assert main(["run", "--mode", "lb"]) == 1
        assert capsys.readouterr().err == (
            "error: stage 'load' failed: lb mode needs a lemma file\n"
        )


class TestCli:
    def test_synth_command(self, tmp_path, capsys):
        out_dir = tmp_path / "lang"
        code = main(
            [
                "synth", "--slots", "3", "--lemmas", "8", "--classes", "2",
                "--tokens", "300", "--seed", "3", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "corpus.txt").exists()
        assert (out_dir / "lemmas.txt").exists()
        assert (out_dir / "gold.tsv").exists()
        assert "corpus:" in capsys.readouterr().out

    def test_run_command_writes_report(self, lang_paths, tmp_path, capsys):
        out = tmp_path / "pred.tsv"
        report = tmp_path / "report.txt"
        code = main(
            [
                "run", "--mode", "pcs-i",
                "--corpus", lang_paths["corpus"],
                "--lemmas", lang_paths["lemmas"],
                "--gold", lang_paths["gold"],
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert report.read_text(encoding="utf-8") == stdout
        assert "bmacc macro: 40.00 (5)" in stdout
        assert out.exists()

    def test_eval_command(self, lang_paths, tmp_path, capsys):
        out = tmp_path / "pred.tsv"
        assert main(
            [
                "run", "--mode", "pcs-i",
                "--corpus", lang_paths["corpus"],
                "--lemmas", lang_paths["lemmas"],
                "--out", str(out),
            ]
        ) == 0
        capsys.readouterr()
        report = tmp_path / "report.txt"
        code = main(
            ["eval", "--gold", lang_paths["gold"], "--predictions", str(out),
             "--report", str(report)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mode: eval" in stdout
        assert "bmacc macro: 40.00 (5)" in stdout
        assert report.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize(
        "extra", [["--hmm-states", "3"], ["--config", "x.cfg"]]
    )
    def test_eval_takes_no_config_flags(self, extra, capsys):
        # No config field changes how predictions score; run --mode eval
        # keeps the flags, as every run mode does.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gold", "g.tsv", "--predictions", "p.tsv", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, lang_paths, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("baseline_slots = 7\n", encoding="utf-8")
        out = tmp_path / "pred.tsv"
        assert main(
            [
                "run", "--mode", "lb", "--lemmas", lang_paths["lemmas"],
                "--config", str(cfg), "--out", str(out),
            ]
        ) == 0
        assert len(read_predictions(str(out))[lang_paths["lexicon"][0]]) == 7
        assert main(
            [
                "run", "--mode", "lb", "--lemmas", lang_paths["lemmas"],
                "--config", str(cfg), "--baseline-slots", "5",
                "--out", str(out),
            ]
        ) == 0
        assert len(read_predictions(str(out))[lang_paths["lexicon"][0]]) == 5

    def test_tag_command_round_trips_models(self, lang_paths, tmp_path, capsys):
        model = tmp_path / "model.npz"
        first = tmp_path / "tags_a.tsv"
        second = tmp_path / "tags_b.tsv"
        assert main(
            [
                "tag", "--corpus", lang_paths["corpus"], "--out", str(first),
                "--model-out", str(model),
                "--hmm-states", "4", "--hmm-iterations", "3",
            ]
        ) == 0
        assert main(
            [
                "tag", "--corpus", lang_paths["corpus"], "--out", str(second),
                "--model-in", str(model),
            ]
        ) == 0
        assert filecmp.cmp(str(first), str(second), shallow=False)
        assert "tagged" in capsys.readouterr().out

    def test_tag_command_trains_the_pipeline_tagger(self, lang_paths, tmp_path):
        out = tmp_path / "tags.tsv"
        flags = ["--hmm-states", "4"]
        assert main(
            ["tag", "--corpus", lang_paths["corpus"], "--out", str(out), *flags]
        ) == 0
        result = run_pipeline(
            Config(mode="pcs-iii", hmm_states=4),
            corpus_path=lang_paths["corpus"],
            lexicon_path=lang_paths["lemmas"],
        )
        lines = out.read_text(encoding="utf-8").split("\n")
        tags = [int(line.split("\t")[1]) for line in lines if line]
        assert tags == result.tags.tolist()

    def test_tag_command_rejects_a_model_without_the_unk_column(
        self, lang_paths, tmp_path, capsys
    ):
        model = tmp_path / "bad.npz"
        assert main(
            [
                "tag", "--corpus", lang_paths["corpus"],
                "--out", str(tmp_path / "tags.tsv"), "--model-out", str(model),
                "--hmm-states", "2", "--hmm-iterations", "1",
            ]
        ) == 0
        data = dict(np.load(str(model), allow_pickle=False))
        data["emissions"] = data["emissions"][:, :-1]
        with open(model, "wb") as handle:
            np.savez(handle, **data)
        capsys.readouterr()
        code = main(
            [
                "tag", "--corpus", lang_paths["corpus"],
                "--out", str(tmp_path / "again.tsv"), "--model-in", str(model),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: start,")

    def test_tag_command_rejects_a_file_that_is_not_a_model(
        self, lang_paths, tmp_path, capsys
    ):
        model = tmp_path / "empty.npz"
        model.write_bytes(b"")
        code = main(
            [
                "tag", "--corpus", lang_paths["corpus"],
                "--out", str(tmp_path / "tags.tsv"), "--model-in", str(model),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {model}: not a saved model"
        )

    def test_rules_dump_command(self, lang_paths, tmp_path, capsys):
        out = tmp_path / "rules.tsv"
        code = main(
            [
                "rules-dump", "--mode", "conll17-k",
                "--lemmas", lang_paths["lemmas"],
                "--gold", lang_paths["gold"],
                "--out", str(out), "--shots", "2",
            ]
        )
        assert code == 0
        assert "wrote rules" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_failures_exit_one_with_error_line(self, lang_paths, capsys):
        code = main(
            [
                "run", "--mode", "pcs-i",
                "--corpus", "/nonexistent/corpus.txt",
                "--lemmas", lang_paths["lemmas"],
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'load' failed")

    def test_every_config_field_is_a_run_flag(self):
        argv = ["run", "--mode", "lb"]
        expected = {}
        for field in dataclasses.fields(Config):
            if field.name == "mode":
                continue
            flag = f"--{field.name.replace('_', '-')}"
            value = {"float": 0.25, "int": 5, "bool": True}[field.type]
            argv += [flag] if field.type == "bool" else [flag, str(value)]
            expected[field.name] = value
        config = _config_from_args(build_parser().parse_args(argv), mode="lb")
        for name, value in expected.items():
            assert getattr(config, name) == value != getattr(Config(), name)

    def test_each_command_takes_the_config_flags_it_reads(self):
        # --mode chooses a mode rather than tuning it; synth's --seed is
        # the language's own.
        fields = {field.name for field in dataclasses.fields(Config)} - {"mode"}
        commands = next(
            action.choices for action in build_parser()._actions
            if action.dest == "command"
        )
        counts = {
            name: len(fields & {action.dest for action in commands[name]._actions})
            for name in ("run", "eval", "tag", "rules-dump")
        }
        assert counts == {"run": 14, "eval": 0, "tag": 3, "rules-dump": 12}

    @pytest.mark.parametrize(
        "argv",
        [
            ["tag", "--corpus", "c.txt", "--out", "t.tsv", "--merge-threshold", "0.4"],
            ["rules-dump", "--lemmas", "l.txt", "--out", "r.tsv", "--baseline-slots", "3"],
        ],
        ids=["tag", "rules-dump"],
    )
    def test_flags_a_command_never_reads_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--hmm-states", "3"], ["--config", "x.cfg"]]
    )
    def test_a_saved_model_takes_no_training_flags(self, extra, capsys):
        code = main(
            [
                "tag", "--corpus", "c.txt", "--out", "t.tsv",
                "--model-in", "m.npz", *extra,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --model-in")

    def test_synth_reports_a_stem_space_it_cannot_fill(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--lemmas", "2500", "--classes", "2", "--slots", "2",
                "--tokens", "20000", "--out-dir", str(tmp_path / "lang"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot sample 2500 stems")

    def test_bad_choices_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--mode", "bogus"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2


# Letters, marks, digits, punctuation and symbols from all of Unicode:
# no whitespace, which would split a token, and no control characters.
WORDS = st.text(
    st.characters(exclude_categories=("Z", "C")), min_size=1, max_size=4
)


@st.composite
def degenerate_inputs(draw):
    """Sentences and lemmas; some words inflect a lemma, the rest are noise."""
    stems = draw(st.lists(WORDS, min_size=1, max_size=4))
    word = WORDS | st.builds(
        str.__add__, st.sampled_from(stems), st.sampled_from(["", "s", "ed"])
    )
    sentences = draw(st.lists(
        st.lists(word, min_size=1, max_size=3), min_size=1, max_size=8
    ))
    lemmas = stems + draw(st.lists(WORDS, max_size=2))
    return sentences, lemmas


@settings(max_examples=120, deadline=None)
@given(
    inputs=degenerate_inputs(),
    mode=st.sampled_from(["pcs-iii", "pcs-ii+iii"]),
    unk_threshold=st.sampled_from([0, 2, 1000]),
    context_window=st.sampled_from([1, 3, 7, 99]),
    hmm_states=st.sampled_from([1, 2, 8]),
)
def test_degenerate_inputs_fail_only_as_stage_errors(
    inputs, mode, unk_threshold, context_window, hmm_states
):
    sentences, lemmas = inputs
    # Single-token sentences, an all-UNK vocabulary, lemmas the corpus
    # never uses and windows longer than every sentence: the run either
    # completes or names the stage that could not.
    config = Config(
        mode=mode, unk_threshold=unk_threshold, context_window=context_window,
        hmm_states=hmm_states, hmm_iterations=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.txt")
        lexicon = os.path.join(tmp, "lemmas.txt")
        with open(corpus, "w", encoding="utf-8") as handle:
            handle.writelines(" ".join(s) + "\n" for s in sentences)
        with open(lexicon, "w", encoding="utf-8") as handle:
            handle.writelines(lemma + "\n" for lemma in lemmas)
        try:
            result = run_pipeline(
                config, corpus_path=corpus, lexicon_path=lexicon,
                out_path=os.path.join(tmp, "pred.tsv"),
            )
        except StageError:
            return
    assert set(result.predictions) == set(result.lexicon.gold_lemmas())
    assert result.slot_count == len(result.slots)
