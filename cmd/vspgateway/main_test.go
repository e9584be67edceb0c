package main

import (
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/gateway"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in                string
		id, prim, stand   string
		wantErrContaining string
	}{
		{in: "s0=http://a:8080", id: "s0", prim: "http://a:8080"},
		{in: "s1=http://a:8080,http://b:8081", id: "s1", prim: "http://a:8080", stand: "http://b:8081"},
		{in: "s2=https://a/prefix", id: "s2", prim: "https://a/prefix"},
		{in: "http://a:8080", wantErrContaining: "id=primaryURL"},
		{in: "=http://a:8080", wantErrContaining: "id=primaryURL"},
		{in: "s0=", wantErrContaining: "empty primary"},
		{in: "s0=,http://b:8081", wantErrContaining: "empty primary"},
		{in: "s0=http://a,http://b,http://c", wantErrContaining: "at most one standby"},
		{in: "s0=localhost:8080", wantErrContaining: "primary URL"},
		{in: "s0=a:8080", wantErrContaining: "primary URL"},
		{in: "s0=ftp://a:8080", wantErrContaining: "primary URL"},
		{in: "s0=http://:8080", wantErrContaining: "primary URL"},
		{in: "s0=http://a:8080?x=1", wantErrContaining: "primary URL"},
		{in: "s0=http://a:8080,b:8081", wantErrContaining: "standby URL"},
		{in: "s0=http://a:port", wantErrContaining: "primary URL"},
	}
	for _, c := range cases {
		sc, err := parseShard(c.in)
		if c.wantErrContaining != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErrContaining) {
				t.Errorf("parseShard(%q) err = %v, want containing %q", c.in, err, c.wantErrContaining)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShard(%q): %v", c.in, err)
			continue
		}
		if sc.ID != c.id || sc.Primary != c.prim || sc.Standby != c.stand {
			t.Errorf("parseShard(%q) = %+v, want {%s %s %s}", c.in, sc, c.id, c.prim, c.stand)
		}
	}
}

// FuzzParseShard: whatever -shard value parseShard accepts spells the shard
// it returns, and gateway.New accepts that shard, so no forward can fail on
// a URL the flag let through.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{
		"s0=http://a:8080", "s1=http://a:8080,http://b:8081", "s2=https://a/prefix/",
		"s0=localhost:8080", "=http://a", "s0=", "s0=http://a,b,c", "s0=http://[::1]:80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, err := parseShard(v)
		if err != nil {
			return
		}
		spec := sc.ID + "=" + sc.Primary
		if sc.Standby != "" {
			spec += "," + sc.Standby
		}
		if spec != v && spec+"," != v {
			t.Fatalf("parseShard(%q) = %+v, which spells %q", v, sc, spec)
		}
		gw, err := gateway.New(gateway.Config{Shards: []gateway.ShardConfig{sc}})
		if err != nil {
			t.Fatalf("parseShard accepts %q, gateway.New refuses it: %v", v, err)
		}
		gw.Close()
	})
}
