package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// The analysis-series pin: the sha256 of every per-step analysis series
// (max MLTD, peak severity, temperature percentiles, per-die severity)
// for six Section-4A-style runs — nodes 7, 10 and 14, each single-die and
// stacked. Any change to the MLTD scan, the severity evaluation, the
// percentile selection or the record stage that moves a single bit of
// these series fails here, so an optimization of those layers is proven
// result-preserving by `go test ./...` alone. A deliberate physics change
// updates the hashes and says so in CHANGES.md.

type seriesPin struct {
	node     tech.Node
	workload string
	preset   string
	// sha256 of MLTD, Severity, TempPcts and DieSeverity, in that order.
	want [4]string
}

var seriesPins = []seriesPin{
	{tech.Node7, "gcc", "", [4]string{
		"90fee72fe5fa5a99c81af0f122dabab90acff7fdd45f93ff5deb1eaa6a0efdec",
		"6064c6387eea9aff3ef694ec7a5c878b8ce19ae4151df9bb43e44b8cfc97ee97",
		"8548353051244e9c7d6a3abb267424f713fbd72190829f8f9373b0edc480437f",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	}},
	{tech.Node10, "lbm", "", [4]string{
		"acbb189d05c42bd2c599be065d81cddfcf0bca236ab559d325556e2ce56c7342",
		"80f2de3052b648f8443a9bdeb277d92ffa2f952d5bd204f8c6b6f5988c4496f5",
		"fabc7933d6f23f4af4d48f52942f0bc93e2205737a7934fad733e7dbb25c7236",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	}},
	{tech.Node14, "namd", "", [4]string{
		"c28cb689ad45b62b3d4a1b34c71ed2479e021cc7a41bcefb7cd7fa1635d3b06e",
		"e586fc7d02504cbb70c5908378cdda0e06fc68de51ee6bf81b20aadc0b037140",
		"cbfd292390dc03ef5a7296d50c40a8d4b6fc40ad9e6700f757da794991416c28",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	}},
	{tech.Node7, "lbm", StackMemoryOnCore, [4]string{
		"376840c8b6ec52e869e2dbcf249328a51021249f13dcb4880e4496622bc8cd08",
		"ab31743666a3ee66843a6a0b54b06199f78bc76f599421551fd7b72e1bd3215d",
		"8294406f9dd86d3ac0ffeac652d631ac8f7542bdcf8182f356abae06d7fb416e",
		"357bc1169923f12fc1f8d804550d56ea99af2f14438e7b25fbc7ced7b013277b",
	}},
	{tech.Node10, "namd", StackCoreOnMemory, [4]string{
		"b2246d43e0a003a8949f3d38c13f451ddf27bd890ff796d3d99ce21a5fdf2de8",
		"bc91deb77017325bbe63bb7b0aa39a92130253e9b23ef18c3f36f006da019dcd",
		"7599b63a9ce88a76b107e75b426f8ed2225c14fe8d97cc308118f6adf01704c2",
		"8427745719ce08cab04f728e9d426f83ddade99b0c0585af16ca0677999a4f6c",
	}},
	{tech.Node14, "gcc", StackGPUSM, [4]string{
		"90da78216c9e80b8569f99cbe2153d7e0fb49b633b314590fb39e977cd2d6111",
		"a425c64791364acce012b3fe33e2095d3e874b85e417c491c8c7d6bdf81c19f8",
		"9d8e45eb1392974988de306010f84fac2c74e1d089550a62223e8b312c7837e7",
		"a9e7cd1e1a7ebd52f7d40b8fb202d06d66373fa911c1c21cd854abf8924456fb",
	}},
}

// seriesHash digests float64 values by their IEEE-754 bits, so equal
// hashes mean bit-identical series.
func seriesHash(vals ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
		h.Write(b[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAnalysisSeriesPinned(t *testing.T) {
	for _, pin := range seriesPins {
		name := pin.node.String() + "/" + pin.workload
		if pin.preset != "" {
			name += "/" + pin.preset
		}
		t.Run(name, func(t *testing.T) {
			p, err := workload.Lookup(pin.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Floorplan:   floorplan.Config{Node: pin.node},
				Workload:    p,
				Core:        2,
				Warmup:      WarmupIdle,
				Steps:       100,
				Solver:      &thermal.ADI{},
				StackPreset: pin.preset,
				Record:      RecordOptions{MLTD: true, Severity: true, TempPercentiles: true},
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pcts := make([]float64, 0, 5*len(res.TempPcts))
			for _, p := range res.TempPcts {
				pcts = append(pcts, p[:]...)
			}
			got := [4]string{
				seriesHash(res.MLTD),
				seriesHash(res.Severity),
				seriesHash(pcts),
				seriesHash(res.DieSeverity...),
			}
			series := [4]string{"MLTD", "Severity", "TempPcts", "DieSeverity"}
			for i := range got {
				if got[i] != pin.want[i] {
					t.Errorf("%s series hash %s, pinned %s", series[i], got[i], pin.want[i])
				}
			}
		})
	}
}
