package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lesm/internal/synth"
)

// pdldaGoldenSHA pins the PDLDA* rows of the Chapter 4 phrase-method
// comparison at smoke scale: every ranked phrase's words, display string
// and score, topic by topic. Table 4.5's runtime cells are not digested;
// what is pinned is the sampler configuration the PDLDA* stand-in runs,
// so a change to the TNG machinery or to that configuration that moves
// the mined phrases shows here.
const pdldaGoldenSHA = "fe69afd5abe2895b02646b741a4481faed6fe095e6fd7620f202793588843e88"

func TestPDLDAPhrasesGolden(t *testing.T) {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: 300, Seed: 408})
	topics := phraseMethodTopics(ds, 4, 410)["PDLDA*"]
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(len(topics)))
	for _, ps := range topics {
		u64(uint64(len(ps)))
		for _, p := range ps {
			u64(uint64(len(p.Words)))
			for _, w := range p.Words {
				u64(uint64(w))
			}
			u64(uint64(len(p.Display)))
			h.Write([]byte(p.Display))
			u64(math.Float64bits(p.Score))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pdldaGoldenSHA {
		t.Errorf("PDLDA* phrase digest %s, want %s", got, pdldaGoldenSHA)
	}
}
