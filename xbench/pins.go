package main

import (
	"encoding/json"
	"fmt"
	"os"

	ifpxq "repro"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
)

// pinDraws is how many schedule draws of the default seed have their
// answers pinned; runs at the default seed stay inside it.
const pinDraws = 4000

// writePins recomputes pinned.json: at the default seed and full size,
// every Table-2 row on both engines in both modes, and every query among
// the first pinDraws serve-mix draws on both engines. Each answer must be
// the same from every engine and mode, or nothing is written.
func writePins(path, work string) error {
	p := pinnedData{Seed: defaultSeed, Table2: map[string]pinnedRow{}, Serve: map[string]string{}}
	for _, e := range table2Exps(defaultSeed, fullSizes) {
		doc, err := xmldoc.ParseString(e.xml, e.uri)
		if err != nil {
			return err
		}
		docs := map[string]*xdm.Document{e.uri: doc}
		row := pinnedRow{Counts: map[string]counts{}}
		for _, eng := range []string{"rel", "interp"} {
			for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeDelta} {
				out, fix, err := evalDocs(e.query, eng == "rel", mode, docs)
				if err != nil {
					return fmt.Errorf("%s %s: %w", e.id, eng, err)
				}
				if row.Digest == "" {
					row.Digest = digest(out)
				} else if digest(out) != row.Digest {
					return fmt.Errorf("%s: engines or modes disagree", e.id)
				}
				name := eng + "/naive"
				if mode == ifpxq.ModeDelta {
					name = eng + "/delta"
				}
				row.Counts[name] = counts{Fed: fix.fed, Depth: fix.depth, Calls: fix.calls}
			}
		}
		p.Table2[e.id] = row
	}
	dir, err := os.MkdirTemp(work, "pins-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sd, _, err := prepareServe(&config{seed: defaultSeed}, dir)
	if err != nil {
		return err
	}
	for _, ev := range schedule(defaultSeed, pinDraws, fullSizes) {
		for v := 0; v < 2 && !ev.write; v++ {
			if v == 1 && ev.class != classCurriculum {
				break
			}
			k := serveKey(ev.class, ev.key, v)
			if _, ok := p.Serve[k]; ok {
				continue
			}
			src := serveQuery(ev.class, ev.key, fullSizes)
			a, _, err := evalDocs(src, false, ifpxq.ModeAuto, sd.byVersion[v])
			if err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			b, _, err := evalDocs(src, true, ifpxq.ModeAuto, sd.byVersion[v])
			if err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			if a != b {
				return fmt.Errorf("%s: engines disagree", k)
			}
			p.Serve[k] = digest(a)
		}
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
