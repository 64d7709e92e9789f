package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/bench"
	"repro/internal/xmlgen"
)

// defaultSeed is the workload seed whose answers and Table-2 counts are
// pinned in pinned.json. At this seed every document is exactly the one
// internal/bench generates, so the table2 counts are ifpbench's.
const defaultSeed = 1

// The workload seed does not reseed the document generators: a generator
// seed changes a document's shape, and with it the work, by several times
// (T2.6's Naive fed-back count ranges from 170k to 652k over seeds 2-6), so
// no run-to-run bound would hold. Each document keeps internal/bench's
// generator seed, and the workload seed instead renames its identifiers
// (person ids, course codes, patient ids, speaker names) by a seeded
// permutation. The renamed document is isomorphic to the original: every
// query does the same work, yet its text, answer and digest are the seed's
// own.

// relabel returns a permutation of n identifiers for a seed: the identity
// at the default seed. salt keeps the documents' permutations apart.
func relabel(seed, salt int64, n int) []int {
	p := make([]int, n)
	if seed == defaultSeed {
		for i := range p {
			p[i] = i
		}
		return p
	}
	return rand.New(rand.NewSource(seed*1000003 + salt)).Perm(n)
}

// renumber rewrites the number captured by group 2 of re through perm.
func renumber(xml string, re *regexp.Regexp, perm []int) string {
	return re.ReplaceAllStringFunc(xml, func(m string) string {
		g := re.FindStringSubmatch(m)
		i, err := strconv.Atoi(g[2])
		if err != nil || i >= len(perm) {
			return m
		}
		return g[1] + strconv.Itoa(perm[i]) + g[3]
	})
}

var (
	personRe  = regexp.MustCompile(`(="person)(\d+)(")`)
	courseRe  = regexp.MustCompile(`(code="c|<pre_code>c)(\d+)("|<)`)
	patientRe = regexp.MustCompile(`( id="p)(\d+)(")`)
	speakerRe = regexp.MustCompile(`<SPEAKER>([^<]*)</SPEAKER>`)
)

// sizes are the document sizes of one benchmark scale.
type sizes struct {
	t21, t23, serveAuction float64 // XMark scale factors
	play                   xmlgen.PlayConfig
	courses, patients      int
}

// fullSizes are internal/bench's Table-2 sizes; the serve-mix auction is
// T2.4's.
var fullSizes = sizes{t21: 0.001, t23: 0.002, serveAuction: 0.003,
	play: xmlgen.PlaySized(), courses: 400, patients: 10000}

// tinySizes keep the smoke tests fast.
var tinySizes = sizes{t21: 0.0004, t23: 0.0006, serveAuction: 0.0006,
	play:    xmlgen.PlayConfig{Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 8, MaxDialogRun: 5, Seed: 3},
	courses: 30, patients: 200}

func auctionXML(sf float64, seed int64) string {
	c := xmlgen.FromScale(sf)
	return renumber(xmlgen.Auction(c), personRe, relabel(seed, 1, c.People))
}

// curriculumXML generates the curriculum; alt selects the second
// generator seed that serve-mix's snapshot writes alternate with.
func curriculumXML(n int, seed int64, alt bool) string {
	c := xmlgen.CurriculumSized(n)
	if alt {
		c.Seed += curriculumAltSeed
	}
	return renumber(xmlgen.Curriculum(c), courseRe, relabel(seed, 2, n))
}

func hospitalXML(n int, seed int64) string {
	return renumber(xmlgen.Hospital(xmlgen.HospitalSized(n)), patientRe, relabel(seed, 3, n))
}

func playXML(c xmlgen.PlayConfig, seed int64) string {
	xml := xmlgen.Play(c)
	var names []string
	seen := map[string]bool{}
	for _, m := range speakerRe.FindAllStringSubmatch(xml, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	perm := relabel(seed, 4, len(names))
	rename := map[string]string{}
	for i, n := range names {
		rename[n] = names[perm[i]]
	}
	return speakerRe.ReplaceAllStringFunc(xml, func(m string) string {
		return "<SPEAKER>" + rename[m[len("<SPEAKER>"):len(m)-len("</SPEAKER>")]] + "</SPEAKER>"
	})
}

// t2exp is one Table-2 row: a query over one generated document.
type t2exp struct {
	id, query, uri, xml string
}

// table2Exps returns the rows T2.1, T2.3, T2.5, T2.6 and T2.8 with their
// documents generated for the workload seed.
func table2Exps(seed int64, sz sizes) []t2exp {
	return []t2exp{
		{"T2.1", bench.BidderNetworkQuery, "auction.xml", auctionXML(sz.t21, seed)},
		{"T2.3", bench.BidderNetworkQuery, "auction.xml", auctionXML(sz.t23, seed)},
		{"T2.5", bench.DialogsQuery, "play.xml", playXML(sz.play, seed)},
		{"T2.6", bench.CurriculumQuery, "curriculum.xml", curriculumXML(sz.courses, seed, false)},
		{"T2.8", bench.HospitalQuery, "hospital.xml", hospitalXML(sz.patients, seed)},
	}
}

// Request classes of serve-mix, one per document.
const (
	classBidder = iota
	classCurriculum
	classHospital
	classDialog
	numClasses
)

var classNames = [numClasses]string{"bidder", "curriculum", "hospital", "dialog"}

var classURIs = [numClasses]string{"auction.xml", "curriculum.xml", "hospital.xml", "play.xml"}

// curriculumAltSeed offsets the generator seed of the second curriculum
// version that serve-mix writes alternate with.
const curriculumAltSeed = 1000003

// keySpace returns how many distinct parameters each request class has.
func keySpace(sz sizes) [numClasses]int {
	auction := xmlgen.FromScale(sz.serveAuction)
	return [numClasses]int{
		auction.People, sz.courses, sz.patients,
		sz.play.Acts * sz.play.ScenesPerAct * sz.play.SpeechesPerScene,
	}
}

// serveQuery renders the query text of one request: the bidder network of
// one person, the prerequisite closure of one course, the diagnosed
// ancestors of one patient, or the dialog that follows one speech.
func serveQuery(class, key int, sz sizes) string {
	switch class {
	case classBidder:
		return fmt.Sprintf(`declare variable $doc := doc("auction.xml");
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
for $p in (with $x seeded by $doc//people/person[@id = "person%d"] recurse bidder($x))
return string($p/@id)`, key)
	case classCurriculum:
		return fmt.Sprintf(`(with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c%d"]
recurse $x/id(./prerequisites/pre_code))/@code/string()`, key)
	case classHospital:
		return fmt.Sprintf(`for $a in (with $x seeded by doc("hospital.xml")//patient[@id = "p%d"]
recurse $x/parents/patient[diagnosis = "hd"])
return string($a/@id)`, key)
	}
	per := sz.play.SpeechesPerScene
	act, scene, speech := key/(per*sz.play.ScenesPerAct)+1, (key/per)%sz.play.ScenesPerAct+1, key%per+1
	return fmt.Sprintf(`for $s in (with $x seeded by doc("play.xml")/PLAY/ACT[%d]/SCENE[%d]/SPEECH[%d]
recurse for $s in $x return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER])
return string($s/LINE)`, act, scene, speech)
}

// event is one scheduled operation of serve-mix: a query, or a write that
// atomically replaces the curriculum snapshot with the given version.
type event struct {
	write   bool
	version int
	class   int
	key     int
	rel     bool
}

// writeEvery makes one operation in this many a snapshot write.
const writeEvery = 200

// popularitySeed fixes which positions in each document are popular: the
// Zipf rank order over positions is the same for every workload seed, so
// every seed asks for the same mix of work.
const popularitySeed = 20080407

// schedule draws n operations for a seed. Each class picks a position from
// a Zipf distribution over a fixed rank order, so popular parameters
// repeat, and names it by the seed's identifier for that position; half of
// the queries name engine=rel, the rest use the server's default engine.
// The draws are a fixed sequence per seed: a longer run extends a shorter
// one.
func schedule(seed int64, n int, sz sizes) []event {
	space := keySpace(sz)
	rank := rand.New(rand.NewSource(popularitySeed))
	labels := [numClasses][]int{
		relabel(seed, 1, space[classBidder]), relabel(seed, 2, space[classCurriculum]),
		relabel(seed, 3, space[classHospital]), relabel(defaultSeed, 0, space[classDialog]),
	}
	rng := rand.New(rand.NewSource(seed))
	var order [numClasses][]int
	var zipf [numClasses]*rand.Zipf
	for c := range space {
		order[c] = rank.Perm(space[c])
		// Skewed enough that most requests repeat a recent one (a repeat
		// share near 0.9), so the median request is a result-cache hit and
		// does not flip between hits and misses from one seed to the next.
		zipf[c] = rand.NewZipf(rng, 1.6, 1, uint64(space[c]-1))
	}
	evs := make([]event, n)
	version := 0
	for i := range evs {
		if i%writeEvery == writeEvery-1 {
			version = 1 - version
			evs[i] = event{write: true, version: version}
			continue
		}
		c := rng.Intn(numClasses)
		pos := order[c][zipf[c].Uint64()]
		evs[i] = event{class: c, key: labels[c][pos], rel: rng.Intn(2) == 0}
	}
	return evs
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// counts are one engine×mode's Table-2 statistics for one row.
type counts struct {
	Fed   int64 `json:"fed"`
	Depth int   `json:"depth"`
	Calls int64 `json:"calls"`
}

// pinnedRow pins a Table-2 row's answer digest and, per "engine/mode", its
// fixpoint counts.
type pinnedRow struct {
	Digest string            `json:"digest"`
	Counts map[string]counts `json:"counts"`
}

// pinnedData is pinned.json: what the default seed must produce at full
// size. Serve answers are keyed "<class>:<key>:<curriculum version>".
type pinnedData struct {
	Seed   int64                `json:"seed"`
	Table2 map[string]pinnedRow `json:"table2"`
	Serve  map[string]string    `json:"serve"`
}

//go:embed pinned.json
var pinnedJSON []byte

func loadPinned() (*pinnedData, error) {
	var p pinnedData
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return &p, nil
}

func serveKey(class, key, version int) string {
	if class != classCurriculum {
		version = 0
	}
	return fmt.Sprintf("%s:%d:%d", classNames[class], key, version)
}
