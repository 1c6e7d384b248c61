package redislike

import (
	"bufio"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// encodeRESP renders args as a RESP array of bulk strings, the form
// every client library sends.
func encodeRESP(args []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.String()
}

// FuzzRESP holds readCommand to three properties on arbitrary input:
// it never panics, it never allocates past the bulk-size bound (plus
// a margin proportional to the input it actually read), and any
// command it accepts, re-encoded as a RESP array, parses back to the
// same arguments.
func FuzzRESP(f *testing.F) {
	for _, seed := range []string{
		"PING\r\n",  // inline
		"SET k v\n", // inline, bare newline
		"   \r\n",   // inline, no fields
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n", // array
		"*2\r\n$3\r\nGET\r\n$0\r\n\r\n",             // empty bulk
		"*0\r\n",                                    // empty array
		"*1\r\n$67108865\r\n",                       // bulk header past the bound
		"*1\r\n$67108864\r\n",                       // bulk header at the bound, no body
		"*1025\r\n",                                 // array header past the arg cap
		"*1\r\n$3\r\nabcd\r\n",                      // bulk longer than its header
		"*-1\r\n",                                   // negative count
		"\r\n",                                      // empty line
	} {
		f.Add([]byte(seed))
	}
	const margin = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bufio.NewReader(strings.NewReader(string(data)))
		var cmds [][]string
		for {
			args, err := readCommand(r)
			if err != nil {
				break
			}
			cmds = append(cmds, args)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBulk+2+16*uint64(len(data))+margin {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(data), grew)
		}
		for _, args := range cmds {
			wire := encodeRESP(args)
			back, err := readCommand(bufio.NewReader(strings.NewReader(wire)))
			if err != nil {
				t.Fatalf("accepted %q, but its RESP encoding %q fails: %v", args, wire, err)
			}
			if !slices.Equal(back, args) {
				t.Fatalf("accepted %q, but its RESP encoding parses to %q", args, back)
			}
		}
	})
}

// TestReadCommandBounds pins the request bounds: an inline command
// takes no more arguments than an array may (so every accepted command
// has a RESP encoding), and a protocol line longer than maxLine is
// rejected instead of buffered without limit.
func TestReadCommandBounds(t *testing.T) {
	parse := func(in string) ([]string, error) {
		return readCommand(bufio.NewReader(strings.NewReader(in)))
	}
	fields := strings.Repeat("a ", maxArgs)
	if args, err := parse(fields + "\r\n"); err != nil || len(args) != maxArgs {
		t.Fatalf("inline with %d args: %d args, %v", maxArgs, len(args), err)
	}
	if _, err := parse(fields + "a\r\n"); err != errProtocol {
		t.Fatalf("inline with %d args: err %v, want errProtocol", maxArgs+1, err)
	}
	// Longer than bufio's default buffer, so the line is gathered in
	// pieces, but within maxLine.
	value := strings.Repeat("v", 3*4096)
	if args, err := parse("SET k " + value + "\r\n"); err != nil || len(args) != 3 || args[2] != value {
		t.Fatalf("long inline line: %d args, %v", len(args), err)
	}
	if _, err := parse(strings.Repeat("x", maxLine+1) + "\r\n"); err != errProtocol {
		t.Fatalf("line past maxLine: err %v, want errProtocol", err)
	}
	if _, err := parse("*1\r\n$" + fmt.Sprint(maxBulk+1) + "\r\n"); err != errProtocol {
		t.Fatalf("bulk past maxBulk: err %v, want errProtocol", err)
	}
}
