package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample maps a Prometheus series (metric name without labels) to
// its value. rcad labels every series with its engine (and the lasso
// series with the solver); one process has one of each, so the labels
// are dropped.
type promSample map[string]float64

// parseProm parses the Prometheus text exposition format.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if i := strings.IndexByte(line, '}'); i >= 0 {
			rest = strings.TrimSpace(line[i+1:])
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after.
func (after promSample) delta(before promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %s", resp.Status)
	}
	return parseProm(resp.Body)
}
