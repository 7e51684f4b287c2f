package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"she/internal/exact"
)

// The accuracy pass measures what the sketches answer against an exact
// sliding window. It runs over one connection, in order, so a seed
// fixes its three figures exactly, whatever the load phase before it
// did. A later change is held to these figures across seeds, so they
// must also hold still from seed to seed, and each is therefore a mean
// over many probes: the bloom filter and the cm sketch are probed at
// the end of each of the stream's windows but the first (the first
// window is a sketch still filling), and there are sixteen hll sketches
// with different hash seeds over a window an eighth as long, each probed
// every half window. The sizes are the smallest that gave quartile
// spreads under 3 % over two to three dozen seeds; README.md says what the server's
// defaults gave.
const (
	accWindow     = 65536 // bloom and cm
	accWindows    = 5     // stream length, in windows
	accAbsent     = 65536 // never-inserted keys asked of the bloom filter at each probe
	accHLLs       = 16
	accHLLWindow  = 8192
	accProbeEvery = accHLLWindow / 2
	accEpoch      = 4096 // keys per flow population, see zipfKeys
)

func accCreates() []string {
	cmds := []string{
		"SKETCH.CREATE acc_b bloom bits=262144 window=65536",
		"SKETCH.CREATE acc_c cm window=65536",
	}
	for i := 0; i < accHLLs; i++ {
		cmds = append(cmds, fmt.Sprintf("SKETCH.CREATE acc_h%d hll registers=1024 window=%d seed=%d", i, accHLLWindow, i+1))
	}
	return cmds
}

// accState accumulates the pass's probes.
type accState struct {
	in  *accuracyInput
	win *exact.Window

	absentAsked, falsePositives int
	areSum                      float64 // one term per bloom-and-cm probe
	cmAsked                     int
	hllErrSum                   float64 // one term per hll estimate
	hllProbes                   int
}

func (st *accState) figures() (fpr, are, hllRelErr float64) {
	return float64(st.falsePositives) / float64(st.absentAsked),
		st.areSum / float64(accWindows-1),
		st.hllErrSum / float64(st.hllProbes)
}

// accuracyInsert creates the acc_* sketches on cl's server and feeds
// them the seeded stream, mirroring it in exact windows and probing as
// it goes; the last bloom-and-cm probe is left to the caller, who may
// put it to another node.
func accuracyInsert(cl *client, in *accuracyInput) (*accState, error) {
	for _, c := range accCreates() {
		if _, err := cl.do(c); err != nil {
			return nil, err
		}
	}
	st := &accState{in: in, win: exact.NewWindow(accWindow)}
	hllWin := exact.NewWindow(accHLLWindow)
	for off := 0; off < len(in.keys); off += accProbeEvery {
		chunk := in.keys[off : off+accProbeEvery]
		for _, name := range []string{"acc_b", "acc_c"} {
			if err := cl.minsert(name, chunk); err != nil {
				return nil, err
			}
		}
		for i := 0; i < accHLLs; i++ {
			if err := cl.minsert("acc_h"+strconv.Itoa(i), chunk); err != nil {
				return nil, err
			}
		}
		for _, k := range chunk {
			st.win.Push(k)
			hllWin.Push(k)
		}
		done := off + accProbeEvery
		if done > accHLLWindow {
			truth := float64(hllWin.Cardinality())
			for i := 0; i < accHLLs; i++ {
				r, err := cl.do("SKETCH.CARD acc_h" + strconv.Itoa(i))
				if err != nil {
					return nil, err
				}
				est, err := strconv.ParseFloat(r[0], 64)
				if err != nil {
					return nil, fmt.Errorf("SKETCH.CARD answered %q", r[0])
				}
				st.hllErrSum += math.Abs(est-truth) / truth
				st.hllProbes++
			}
		}
		if done%accWindow == 0 && done > accWindow && done < len(in.keys) {
			if err := accuracyProbe(cl, st); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// accuracyProbe asks cl's server, which may be another node than the
// one that took the inserts (a restarted one, a follower), for the
// never-inserted keys (bf_fpr: the share the bloom filter claims) and
// for every distinct key of the window (cm_are: mean of
// |estimate − true| / true). The bloom filter is not asked for the
// window's keys: a sharded sketch keeps a window per shard, so under a
// skewed stream a key the exact global window still holds may rightly
// have left its shard's; the ingest checks cover false negatives with
// keys recent enough for every shard.
func accuracyProbe(cl *client, st *accState) error {
	ans, err := cl.queryAll("acc_b", st.in.absent, 1024)
	if err != nil {
		return err
	}
	for _, a := range ans {
		if a != 0 {
			st.falsePositives++
		}
	}
	st.absentAsked += len(ans)
	// Sorted, so that the float sum below adds in one order every run.
	var keys []uint64
	st.win.Distinct(func(k, _ uint64) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	est, err := cl.queryAll("acc_c", keys, 1024)
	if err != nil {
		return err
	}
	var sum float64
	for i, e := range est {
		truth := float64(st.win.Frequency(keys[i]))
		sum += math.Abs(float64(e)-truth) / truth
	}
	st.areSum += sum / float64(len(keys))
	st.cmAsked += len(keys)
	return nil
}
