//! A travelling salesman's order book — the paper's §7 quote scenario:
//! "if the price of an item has increased by a large amount, or if the
//! item is out of stock, then the salesman's price or delivery quote
//! must be reconciled with the customer."
//!
//! ```bash
//! cargo run --release --example mobile_sales
//! ```
//!
//! This example drives the two-tier *primitives* by hand — the dual
//! tentative/master versions, the input-parameter capture, and the
//! acceptance criteria — rather than the packaged simulator, so you can
//! see each §7 step individually.

use dangers_of_replication::core::{Criterion, Op, Operation, TxnSpec};
use dangers_of_replication::storage::{
    LamportClock, NodeId, ObjectId, ObjectStore, TentativeStore, Value,
};

/// Objects 0..N are per-item stock levels; objects N..2N are quoted
/// prices.
const ITEMS: u64 = 4;
const STOCK: u64 = 0;
const PRICE: u64 = ITEMS;

fn item_name(i: u64) -> &'static str {
    ["widgets", "gears", "sprockets", "flanges"][i as usize % 4]
}

fn main() {
    let laptop_node = NodeId(1);
    let mut hq_clock = LamportClock::new(NodeId(0));

    // Head office master data: stock and prices.
    let mut hq = ObjectStore::new(2 * ITEMS);
    for i in 0..ITEMS {
        hq.set(ObjectId(STOCK + i), Value::Int(10), hq_clock.tick());
        hq.set(
            ObjectId(PRICE + i),
            Value::Int(100 + 25 * i as i64),
            hq_clock.tick(),
        );
    }

    // The salesman syncs his laptop before leaving (lazy-master
    // refresh), then goes offline.
    let mut laptop = TentativeStore::new(2 * ITEMS);
    for (id, v) in hq.iter() {
        laptop.master_mut().set(id, v.value, v.ts);
    }
    let mut laptop_clock = LamportClock::new(laptop_node);
    println!("== salesman disconnects with a fresh copy of stock & prices ==\n");

    // Offline, he takes three orders. Each is a tentative transaction:
    // decrement stock, quoted at the price his laptop shows, with two
    // acceptance criteria: the sale must not oversell stock
    // (NonNegative) and the final price must not exceed his quote
    // (AtMost).
    struct Order {
        customer: &'static str,
        item: u64,
        qty: i64,
    }
    let orders = [
        Order {
            customer: "Acme Corp",
            item: 0,
            qty: 4,
        },
        Order {
            customer: "Globex",
            item: 0,
            qty: 8,
        },
        Order {
            customer: "Initech",
            item: 2,
            qty: 2,
        },
    ];

    /// A logged tentative transaction: spec, tentative outputs,
    /// customer, quoted price, quantity.
    type Logged<'a> = (TxnSpec, Vec<(ObjectId, Value)>, &'a str, i64, i64);
    let mut tentative: Vec<Logged> = Vec::new();
    for o in &orders {
        let stock_obj = ObjectId(STOCK + o.item);
        let quote = laptop.read(ObjectId(PRICE + o.item)).value.as_int();
        let spec = TxnSpec::new(vec![Operation::new(stock_obj, Op::Debit(o.qty))])
            .with_criterion(Criterion::NonNegative);
        // Tentative execution against local tentative versions.
        let current = laptop.read(stock_obj).value;
        let new = spec.ops[0].op.apply(&current);
        laptop.write_tentative(stock_obj, new, laptop_clock.tick());
        println!(
            "tentative: {} orders {} {} @ ${} each (laptop stock now {})",
            o.customer,
            o.qty,
            item_name(o.item),
            quote,
            new
        );
        tentative.push((spec, vec![(stock_obj, new)], o.customer, quote, o.qty));
    }

    // Meanwhile, back at head office, a walk-in customer buys 5 widgets
    // and the widget price rises to $130.
    println!("\n== meanwhile at head office ==");
    let w_stock = ObjectId(STOCK);
    let left = hq.get(w_stock).value.as_int() - 5;
    hq.set(w_stock, Value::Int(left), hq_clock.tick());
    hq.set(ObjectId(PRICE), Value::Int(130), hq_clock.tick());
    println!("a walk-in buys 5 widgets (stock now {left}); widget price raised to $130\n");

    // The salesman reconnects. Step 1: discard tentative versions.
    println!("== salesman reconnects: re-executing tentative transactions ==");
    laptop.discard_tentative();
    // Step 2: refresh master versions (lazy-master stream; here a
    // snapshot for brevity).
    for (id, v) in hq.iter() {
        laptop.master_mut().apply_lww(id, v.ts, v.value);
    }
    // Step 3: the host base node re-runs each tentative transaction in
    // commit order against the master copies and applies the
    // acceptance criteria.
    for (spec, tentative_results, customer, quote, qty) in &tentative {
        let stock_obj = spec.ops[0].object;
        let item = stock_obj.0 - STOCK;
        let current = hq.get(stock_obj).value;
        let base_result = spec.ops[0].op.apply(&current);
        let base_outputs = vec![(stock_obj, base_result)];
        let stock_ok = spec.criterion.accepts(&base_outputs, tentative_results);
        let price_now = hq.get(ObjectId(PRICE + item)).value.as_int();
        let price_ok = Criterion::AtMost(*quote)
            .accepts(&[(ObjectId(PRICE + item), Value::Int(price_now))], &[]);
        if stock_ok && price_ok {
            hq.set(stock_obj, base_result, hq_clock.tick());
            println!(
                "ACCEPTED  {customer}: {qty} {} shipped at ${price_now} (stock left {base_result})",
                item_name(item),
            );
        } else if !stock_ok {
            println!(
                "REJECTED  {customer}: only {} {} left — delivery quote must be renegotiated",
                current,
                item_name(item)
            );
        } else {
            println!("REJECTED  {customer}: price rose to ${price_now} above the ${quote} quote");
        }
    }

    println!("\nthe master order book stayed consistent throughout:");
    for i in 0..ITEMS {
        println!(
            "  {:9} stock {:>2}, price ${}",
            item_name(i),
            hq.get(ObjectId(STOCK + i)).value,
            hq.get(ObjectId(PRICE + i)).value
        );
    }
    let any_negative = hq.iter().any(|(_, v)| v.value.as_int() < 0);
    assert!(
        !any_negative,
        "acceptance criteria guarantee non-negative stock"
    );
}
