"""Command-line interface.

Subcommands: run (any pipeline mode), eval (score predictions against
gold), synth (generate a synthetic language), tag (train/apply the HMM
tagger), rules-dump (inspect learned affix rules).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import MODES, Config, build_config, parse_config_file
from .corpus_io import load_corpus
from .inflection import dump_rules
from .pipeline import StageError, run_pipeline, train_tagger

# Every Config field except mode is a run flag; field types are strings
# because config.py postpones annotations.
_CONFIG_FLAGS = {
    field.name: field.type for field in dataclasses.fields(Config)
    if field.name != "mode"
}
# The fields train_tagger reads.
_TAGGER_FLAGS = ("hmm_states", "unk_threshold", "hmm_iterations")
# No rules-dump mode reads the baseline fields.
_RULES_FLAGS = tuple(n for n in _CONFIG_FLAGS if not n.startswith("baseline_"))


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--config", help="key = value config file")
    for name in names:
        kind = _CONFIG_FLAGS[name]
        flag = f"--{name.replace('_', '-')}"
        if kind == "bool":
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None
            )
        else:
            parser.add_argument(
                flag, type={"int": int, "float": float}[kind], default=None
            )


def _config_from_args(args: argparse.Namespace, mode: str | None = None):
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {}
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if mode is not None:
        overrides["mode"] = mode
    return build_config(file_values, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, mode=args.mode)
    result = run_pipeline(
        config,
        corpus_path=args.corpus,
        lexicon_path=args.lemmas,
        gold_path=args.gold,
        out_path=args.out,
        predictions_path=args.predictions,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(result.report)
    sys.stdout.write(result.report)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import generate_language

    language = generate_language(
        slots=args.slots,
        lemmas=args.lemmas,
        classes=args.classes,
        tokens=args.tokens,
        seed=args.seed,
    )
    corpus_path, lexicon_path, gold_path = language.write(args.out_dir)
    print(f"corpus: {corpus_path} ({language.token_count} tokens)")
    print(f"lemmas: {lexicon_path} ({len(language.lexicon)})")
    print(f"gold: {gold_path}")
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    from .tagger import load_model, save_model, tag_corpus, write_tagged

    trains = args.config or any(getattr(args, f) is not None for f in _TAGGER_FLAGS)
    if args.model_in and trains:
        raise ValueError("--model-in decodes a saved model and takes no training flags")
    corpus, _ = load_corpus(args.corpus)
    if args.model_in:
        model = load_model(args.model_in)
    else:
        model = train_tagger(corpus, _config_from_args(args))
    if args.model_out:
        save_model(model, args.model_out)
    tags = tag_corpus(model, corpus)
    write_tagged(corpus, tags, args.out)
    print(f"tagged {len(tags)} tokens with {model.states} states -> {args.out}")
    return 0


def _cmd_rules_dump(args: argparse.Namespace) -> int:
    config = _config_from_args(args, mode=args.mode)
    result = run_pipeline(
        config,
        corpus_path=args.corpus,
        lexicon_path=args.lemmas,
        gold_path=args.gold,
    )
    dump_rules(result.rules, args.out)
    print(f"wrote rules for {result.slot_count} slots -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracomp",
        description="Unsupervised morphological paradigm completion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline mode")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--corpus", help="tokenized corpus, one sentence per line")
    run.add_argument("--lemmas", help="lemma list, one per line")
    run.add_argument("--gold", help="gold table for scoring (TSV)")
    run.add_argument("--out", help="write predictions here (TSV)")
    run.add_argument("--predictions", help="existing predictions (eval mode)")
    run.add_argument("--report", help="write the run report here")
    _add_config_flags(run, _CONFIG_FLAGS)
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score predictions against a gold table")
    ev.add_argument("--gold", required=True)
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--report", help="write the report here")
    # No config field changes a score, so eval has no config flags.
    ev.set_defaults(
        func=_cmd_run, mode="eval", corpus=None, lemmas=None, out=None, config=None
    )

    synth = sub.add_parser("synth", help="generate a synthetic language")
    synth.add_argument("--slots", type=int, default=4)
    synth.add_argument("--lemmas", type=int, default=30)
    synth.add_argument("--classes", type=int, default=2)
    synth.add_argument("--tokens", type=int, default=20000)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=_cmd_synth)

    tag = sub.add_parser("tag", help="train/apply the HMM tagger")
    tag.add_argument("--corpus", required=True)
    tag.add_argument("--out", required=True, help="token<TAB>state dump")
    tag.add_argument("--model-in", help="decode with a saved model")
    tag.add_argument("--model-out", help="save the trained model (.npz)")
    _add_config_flags(tag, _TAGGER_FLAGS)
    tag.set_defaults(func=_cmd_tag)

    rules = sub.add_parser("rules-dump", help="dump learned affix rules")
    rules.add_argument("--mode", default="pcs-iii",
                       choices=("pcs-iii", "pcs-ii+iii", "conll17-k"))
    rules.add_argument("--corpus")
    rules.add_argument("--lemmas", required=True)
    rules.add_argument("--gold")
    rules.add_argument("--out", required=True)
    _add_config_flags(rules, _RULES_FLAGS)
    rules.set_defaults(func=_cmd_rules_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
