package types

import (
	"sync/atomic"
	"testing"
)

// TestSplitmixGolden pins the splitmix64 stream and MixedSharding to the
// values they produced before the generator was shared, so no seeded run
// (latency jitter, chaos draws, stripe assignment) can drift silently.
func TestSplitmixGolden(t *testing.T) {
	draws := map[uint64][3]float64{
		0:                      {0.8833108082136426, 0.43152799704850997, 0.026433771592597743},
		1:                      {0.5665615751722809, 0.7457817572627011, 0.9710027535867962},
		0x9e3779b97f4a7c15:     {0.43152799704850997, 0.026433771592597743, 0.9708819781538285},
		7 ^ 0x9e3779b97f4a7c15: {0.9237001069304558, 0.995512885175621, 0.43603040534905735},
	}
	for state, want := range draws {
		var s atomic.Uint64
		s.Store(state)
		for i, w := range want {
			if got := Uniform(&s); got != w {
				t.Errorf("state %#x draw %d = %v, want %v", state, i, got, w)
			}
		}
	}
	if got := Mix64(0x9e3779b97f4a7c15); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64(golden) = %#x, want the splitmix64 reference 0xe220a8397b1dcdaf", got)
	}
	shards := []struct {
		k    int
		c    ClientID
		want ShardID
	}{
		{4, 0, 0}, {4, 1, 1}, {4, 2, 2}, {4, 3, 0}, {4, 1000, 3}, {4, 1 << 40, 0},
		{7, 0, 0}, {7, 1, 6}, {7, 2, 1}, {7, 3, 4}, {7, 1000, 0}, {7, 1 << 40, 1},
	}
	for _, tc := range shards {
		if got := MixedSharding(tc.k)(tc.c); got != tc.want {
			t.Errorf("MixedSharding(%d)(%d) = %d, want %d", tc.k, tc.c, got, tc.want)
		}
	}
}
