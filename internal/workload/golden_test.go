package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenStreams pins the first goldenN accesses of every model to a hash of
// (Addr, PC, Write), at base 1 and seed 7, for a paper-sized LLC (2048 sets)
// and a small one (16 sets). The values were recorded before any change to
// the generators' internals; a mismatch means the simulated traces, and so
// every repro figure, changed.
var goldenStreams = map[string][2]uint64{
	"403.gcc":              {0x6d21a7412469bb9f, 0x6f9acde945f752d},
	"429.mcf":              {0x81f16a2436090f76, 0x46761555feeb489e},
	"433.milc":             {0x1c7a159a95e2caa5, 0x1c7a159a95e2caa5},
	"434.zeusmp":           {0x8111b11b151ee71c, 0x2b0ab0f781b4b4c5},
	"436.cactusADM":        {0x9dfe2d1aa4f08e3b, 0x8eccd475dec3008b},
	"437.leslie3d":         {0x90e6206823f0b886, 0xe86232392ae7fd7a},
	"450.soplex":           {0x4607f1434f404792, 0x3fcf2af00a7b40fb},
	"456.hmmer":            {0xfd8a8a7f1f246c91, 0x6b5187ae1abe6677},
	"459.GemsFDTD":         {0xeed8fc444c94608f, 0xa39e80ebe85d4398},
	"462.libquantum":       {0x1847f2b98a1660a5, 0x8833fd2a053b6485},
	"464.h264ref":          {0x113b50f790ee30ce, 0x7034875a75392d94},
	"470.lbm":              {0x1c7a159a95e2caa5, 0x1c7a159a95e2caa5},
	"471.omnetpp":          {0x577b2823de42c3d1, 0xab4e5062d682595c},
	"473.astar":            {0x3181defe2034cbeb, 0x965864e3180b7829},
	"482.sphinx3":          {0x89c011fa53bfaeaa, 0xef10d64f634d9659},
	"483.xalancbmk.3":      {0x8c7d2417fb43494a, 0x72724455d71f1a28},
	"483.xalancbmk.1":      {0xffba4e3fe42311c7, 0x316c3c99e2dfbd4},
	"483.xalancbmk.2":      {0x8cd23486759c26ba, 0x6ea9a65ae94d3a63},
	"403.gcc.phased":       {0x24ddbf290adc42cd, 0x81fb85ec013901c1},
	"450.soplex.phased":    {0x459fdc3317653c8e, 0x37fda2b05cd4eb36},
	"483.xalancbmk.phased": {0x78b9ed13b4cbeb7, 0xd900ea7468b60004},
	"429.mcf.phased":       {0x11f8562f76e8db08, 0xa0290dc1bf44dea0},
	"482.sphinx3.phased":   {0x8558a8c5007f9c92, 0x83d7328f7497c2b6},
}

const goldenN = 200_000

func streamHash(b Benchmark, sets int) uint64 {
	g := b.Generator(sets, 1, 7)
	h := fnv.New64a()
	var buf [17]byte
	for i := 0; i < goldenN; i++ {
		a := g.Next()
		binary.LittleEndian.PutUint64(buf[0:], a.Addr)
		binary.LittleEndian.PutUint64(buf[8:], a.PC)
		buf[16] = 0
		if a.Write {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestGoldenStreams(t *testing.T) {
	models := append(All(), Phased()...)
	for _, b := range models {
		got := [2]uint64{streamHash(b, 2048), streamHash(b, 16)}
		want, ok := goldenStreams[b.Name]
		if !ok {
			t.Errorf("%s: no golden hash recorded", b.Name)
			continue
		}
		if got != want {
			t.Errorf("%s: stream hash %#x/%#x (2048/16 sets), want %#x/%#x",
				b.Name, got[0], got[1], want[0], want[1])
		}
	}
}
